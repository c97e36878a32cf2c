"""Tests of the benchmark's own machinery (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import outcome  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from parcyl.errors import DomainError, ParcylError  # noqa: E402
from parcyl.lg import CertifiedValue  # noqa: E402
from parcyl.oracle import OracleValue  # noqa: E402
from parcyl.scaled import ScaledComplex  # noqa: E402


@pytest.mark.parametrize("wl", sorted(workloads.GENERATORS))
def test_generator_is_deterministic_under_a_seed(wl):
    a = workloads.take(wl, 7, 200)
    assert a == workloads.take(wl, 7, 200)
    assert a != workloads.take(wl, 8, 200)
    json.dumps(a)  # plain inputs only


def test_grid_is_a_jittered_lattice_visited_in_a_fixed_order():
    def cells(seed):
        out = []
        for op in workloads.take("grid", seed, 36 * 12):
            re, im = op["z"]
            assert -3.0 <= re <= 3.0 and -3.0 <= im <= 3.0
            if op["family"] not in workloads.REAL_FAMILIES:
                out.append((op["family"], math.floor(re), math.floor(im)))
        return out

    assert cells(1) == cells(2)
    # every family visits each of the 36 unit cells once per 36 rounds
    assert len(set(cells(1))) == 36 * 10


@pytest.mark.parametrize("wl", sorted(workloads.GENERATORS))
def test_every_block_holds_the_same_mix(wl):
    ops = workloads.take(wl, 5, 2000)
    blocks = {}
    for op in ops:
        blocks.setdefault(op["block"], []).append(op)
    ids = sorted(blocks)
    assert ids == list(range(len(ids)))  # consecutive, in stream order
    mixes = {(tuple(sorted(op["family"] for op in blocks[b])),
              sum(bool(op.get("bad")) for op in blocks[b])) for b in ids[:-1]}
    assert len(mixes) == 1


def _run_blocks(wl):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        return workloads.blocks_for(wl, json.load(fh)["run_seconds"])


@pytest.mark.parametrize("wl", ["grid", "verify"])
def test_the_blocks_a_run_measures_cover_both_half_planes(wl):
    rows = {}
    for op in workloads.take(wl, 4, 2000):
        if op["block"] >= _run_blocks(wl):
            break
        if op["family"] not in workloads.REAL_FAMILIES and "zone" not in op:
            rows.setdefault((op["block"], op["family"]), set()).add(
                round(op["z"][1] - 0.5) + 0.5)
    fams = set(workloads.CLI_FAMILIES) - set(workloads.REAL_FAMILIES)
    if wl == "verify":
        fams &= set(workloads.ORACLE_FAMILIES)
    assert {f for _, f in rows} == fams
    assert all(min(r) < 0 < max(r) for r in rows.values())
    if wl == "grid":  # and every row of the lattice
        assert all(r == set(workloads.GRID_ROWS) for r in rows.values())


def test_a_run_measures_a_fixed_number_of_blocks():
    for wl in workloads.GENERATORS:
        assert workloads.blocks_for(wl, 0.01) == 1
        assert workloads.blocks_for(wl, 600) > workloads.blocks_for(wl, 30) >= 1


def test_every_sweep_block_holds_each_family_in_both_zones():
    per_block = {}
    for op in workloads.take("sweep", 2, 400):
        per_block.setdefault(op["block"], []).append((op["family"], op["zone"]))
    want = sorted([(f, z) for f in workloads.SWEEP_FAMILIES
                   for z in ("cauchy", "direct")] +
                  [(f, "lg") for f in workloads.SWEEP_LG_FAMILIES] * 2)
    assert all(sorted(b) == want for b in per_block.values())


def test_every_grid_block_holds_the_same_slow_ops():
    edge = set(workloads.GRID_EDGE_CELLS)
    left = set(workloads.GRID_EDGE_LEFT)
    per_block = {}
    for op in workloads.take("grid", 1, 36 * 12):
        cell = tuple(round(v - 0.5) + 0.5 for v in op["z"])
        slow = (op["family"] == "UR" and cell in edge) or \
            (op["family"] in ("U+", "U+'") and cell in left)
        per_block[op["block"]] = per_block.get(op["block"], 0) + slow
    assert set(per_block.values()) == {4}


def test_sweep_draws_a_new_u_per_op_at_fixed_points():
    ops = workloads.take("sweep", 3, 300)
    assert len({op["u"] for op in ops}) == len(ops)
    assert all(10.0 <= op["u"] <= 300.0 for op in ops)
    assert len({(op["family"], tuple(op["z"])) for op in ops}) == \
        len(workloads.sweep_points(3))


def test_cli_stream_holds_malformed_requests():
    ops = workloads.take("cli", 1, 600)
    kinds = [op["bad"] for op in ops]
    assert set(kinds) == set(workloads.CLI_BAD_KINDS) | {None}
    assert kinds.count(None) == 500
    argv = workloads.cli_argv(dict(ops[0], bad="z_missing"))
    assert not any(a.startswith("--z") for a in argv)


def _cv(value=1.0 + 0j, bound=1e-8):
    return CertifiedValue(ScaledComplex.from_complex(value), bound, 3)


def test_classifier_sorts_refusals_and_failures():
    assert outcome.classify_exception(DomainError("x"), ParcylError) == outcome.REFUSED
    assert outcome.classify_exception(ZeroDivisionError(), ParcylError) == outcome.FAILED
    assert outcome.classify_exception(OverflowError(), ParcylError) == outcome.FAILED
    assert outcome.classify_value(_cv()) == outcome.OK
    assert outcome.classify_value(_cv(bound=math.inf)) == outcome.FAILED
    assert outcome.classify_value(_cv(bound=math.nan)) == outcome.FAILED
    bad = CertifiedValue(ScaledComplex(complex(math.nan, 0.0), 0.0), 1e-8, 3)
    assert outcome.classify_value(bad) == outcome.FAILED


def test_classifier_flags_a_bound_violation():
    ref = OracleValue(ScaledComplex.from_complex(1.0), 1e-12, "quadrature")
    within = outcome.classify_verified(_cv(1.0 + 5e-9), ref)
    beyond = outcome.classify_verified(_cv(1.0 + 5e-7), ref)
    assert within[0] == outcome.OK
    assert beyond[0] == outcome.FAILED and beyond[1] > 1e-8


def test_cli_classifier():
    ok = json.dumps({"value_mantissa_re": "1.5", "value_mantissa_im": "0",
                     "log_scale": "2", "rel_bound": "1e-9"})
    err = json.dumps({"error": "DOMAIN", "detail": "outside"})
    assert outcome.classify_cli(0, ok + "\n")[0] == outcome.OK
    assert outcome.classify_cli(2, err)[0] == outcome.REFUSED
    assert outcome.classify_cli(1, "")[0] == outcome.FAILED  # traceback
    assert outcome.classify_cli(0, ok + "\n" + ok)[0] == outcome.FAILED
    assert outcome.classify_cli(0, "not json")[0] == outcome.FAILED
    assert outcome.classify_cli(2, ok)[0] == outcome.FAILED


ALL_HOOKS = set(tracing.REQUIRES.values()) | set(tracing.LAYERS)


def _layer_figures(installed):
    return tracing.layer_metrics([], [], {}, {}, {0: {"dt": 1.0, "flags": set()}},
                                 processes=1, import_s=0.5, installed=installed)


def test_a_missing_hook_drops_only_its_figures():
    full = _layer_figures(ALL_HOOKS)
    part = _layer_figures(ALL_HOOKS - {"plane.trace_level_curve"})
    assert set(full) - set(part) == {"plane.trace_ms", "plane.traced_frac",
                                     "share.traced_ops", "share.traced_time"}


def test_tracing_wraps_and_rebinds_every_namespace():
    import subprocess

    # in a fresh process: the wrappers stay installed for its lifetime
    code = ("import parcyl, parcyl.tp, parcyl.inhom, tracing;"
            "tr = tracing.install(tracing.Tracer(), parcyl); tr.op = 0;"
            "parcyl.pcf_U_neg(20.0, 1.05 + 0.05j, 3);"
            "w = '__wrapped_by_perfbench__';"
            "assert hasattr(parcyl.tp.omega_varpi, w);"
            "assert hasattr(parcyl.inhom.tp_coeff_funcs, w);"
            "assert hasattr(parcyl.inhom.wi_prime, w);"
            "assert hasattr(parcyl.pcf_U_neg, w);"
            "names = {s[2] for s in tr.spans};"
            "assert {'pcf_U_neg', 'tp_coeff_funcs', 'airy'} <= names, names;"
            "assert tr.counts['tp.calls_cauchy'] == 1")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path[:2]))
    subprocess.run([sys.executable, "-c", code], check=True, env=env, cwd=HERE)


def test_benchmark_json_lists_the_metrics_the_runs_print():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_JSON)
    assert [m["name"] for m in bench["per_layer"]] == \
        list(_layer_figures(ALL_HOOKS)) + ["trace.overhead_frac"]
    assert [w["name"] for w in bench["workloads"]] == list(workloads.GENERATORS)
