"""Timing wrappers installed from the benchmark side (traced runs only).

``install`` wraps the public functions of every parcyl layer module, the
``__call__`` of ``RationalPoly``/``RationalFunc`` (and its subclasses) and
the lazy ``CoeffTables.G``/``G_star`` generators, and rebinds each wrapped
name in every ``parcyl`` namespace that binds it (``tp`` imports
``omega_varpi`` from ``lg``, ``inhom`` imports ``tp_coeff_funcs``, ``wi``
and ``wi_prime``, and so on).  Nothing under ``src/`` changes.

A span is recorded when a call crosses from one layer into another, and
always for the KEEP functions whose time is reported by name; a call to a
wrapped function from inside its own layer passes straight through.
KEEP spans are kept one by one (op id, layer, name, start, duration, self
time, parent, error); every other span is summed into a per-(op, layer,
name) aggregate, so hot scalar helpers cost a counter update instead of a
record.  Self time is a span's duration minus the time of the child spans
it encloses.  Everything stays in memory until ``Tracer.dump``.

Counts come only from public return values and arguments
(``PathPolyline.vertices``, ``AiryValue.method``, ``TPCoeffs.method``, the
segment arrays passed to ``omega_varpi``).  A hook whose target is missing
is skipped and its metric is absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from fractions import Fraction

LAYERS = ("coeffs", "ratpoly", "plane", "lg", "airy", "tp", "inhom",
          "oracle", "cli")

#: functions whose spans are kept individually and reported by name
KEEP = {
    "coeffs": {"get_tables", "G", "G_star", "gen_G", "analytic_part_G"},
    "plane": {"monotone_path", "trace_level_curve"},
    "lg": {"omega_varpi", "pcf_U_pos", "pcf_Uprime_pos", "weber_neg_Wj",
           "weber_neg_real", "lg_W"},
    "airy": {"airy", "wi", "wi_prime", "scorer_hi", "scorer_hi_prime"},
    "tp": {"tp_coeff_funcs", "pcf_U_neg", "pcf_V_neg", "pcf_U_rotated",
           "weber_W_real"},
    "inhom": {"inhom_series", "inhom_scorer", "connect_inhom_pcfm"},
    "oracle": {"oracle_U", "oracle_U_prime", "oracle_V_neg", "oracle_inhom"},
    "cli": {"main"},
}
#: recorded even when called from inside their own layer
ALWAYS = {"RationalPoly.__call__"}
SCORER_NAMES = {"wi", "wi_prime", "scorer_hi", "scorer_hi_prime"}
G_NAMES = {"G", "G_star", "gen_G", "analytic_part_G"}

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list = []        # KEEP spans, in entry order
        self.agg: dict = {}          # (op, layer, name) -> [calls, busy, self, fails]
        self.stack: list = []        # [layer, span index or -1, child seconds]
        self.active: dict = {}       # layer -> [open spans of the layer]
        self.op_flags: dict = {}     # op -> {"traced", "cauchy"}
        self.counts: dict = {}       # counter name -> value (ops only)
        self.maxima: dict = {}
        self.installed: list = []
        self.t_origin = _now()

    # -- counters ----------------------------------------------------------

    def count(self, name: str, k: float = 1.0) -> None:
        if self.op >= 0:
            self.counts[name] = self.counts.get(name, 0.0) + k

    def peak(self, name: str, v: float) -> None:
        if self.op >= 0 and v > self.maxima.get(name, 0.0):
            self.maxima[name] = v

    def flag(self, name: str) -> None:
        self.op_flags.setdefault(self.op, set()).add(name)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, layer: str, name: str, fn, observe=None):
        keep = name in KEEP.get(layer, ())
        bypass = not keep and name not in ALWAYS
        tr = self
        # open-span depth of this layer and of this function
        in_layer = self.active.setdefault(layer, [0])
        in_fn = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tr.stack
            if bypass and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            outer = in_layer[0] == 0
            fouter = in_fn[0] == 0
            idx = -1
            if keep:
                idx = len(tr.spans)
                tr.spans.append(None)
            frame = [layer, idx, 0.0]
            stack.append(frame)
            in_layer[0] += 1
            in_fn[0] += 1
            err = None
            res = None
            t0 = _now()
            try:
                res = fn(*args, **kwargs)
                return res
            except BaseException as exc:
                err = type(exc).__name__
                raise
            finally:
                dur = _now() - t0
                stack.pop()
                in_layer[0] -= 1
                in_fn[0] -= 1
                if stack:
                    stack[-1][2] += dur
                self_t = dur - frame[2]
                extra = None
                if observe is not None and err is None:
                    try:
                        extra = observe(tr, args, res, dur, fouter)
                    except Exception:  # a changed return type only loses the metric
                        extra = None
                if keep:
                    parent = stack[-1][1] if stack else -1
                    tr.spans[idx] = (tr.op, layer, name, t0 - tr.t_origin,
                                     dur, self_t, parent, outer, fouter, err,
                                     extra)
                else:
                    key = (tr.op, layer, name)
                    a = tr.agg.get(key)
                    if a is None:
                        a = tr.agg[key] = [0, 0.0, 0.0, 0]
                    a[0] += 1
                    if outer:
                        a[1] += dur
                    a[2] += self_t
                    if err is not None and outer:
                        a[3] += 1

        wrapper.__wrapped_by_perfbench__ = True
        return wrapper

    # -- output ------------------------------------------------------------

    def dump(self, path: str, **meta) -> None:
        """Write every span and aggregate, then the counters, as JSON lines."""
        flags = {str(op): sorted(f) for op, f in self.op_flags.items()}
        with open(path, "w") as fh:
            for s in self.spans:
                if s is not None:
                    fh.write(json.dumps(["span", *s]) + "\n")
            for (op, layer, name), (n, busy, self_t, fails) in self.agg.items():
                fh.write(json.dumps(["agg", op, layer, name, n, busy, self_t,
                                     fails]) + "\n")
            fh.write(json.dumps(["meta", {"counts": self.counts,
                                          "maxima": self.maxima,
                                          "flags": flags,
                                          "installed": self.installed,
                                          **meta}]) + "\n")


# ----------------------------------------------------------------------
# observers: counts from public return values and arguments
# ----------------------------------------------------------------------

def _obs_path(tr, args, res, dur, fouter):
    n = len(res.vertices)
    tr.count("plane.path_vertices_sum", n)
    tr.peak("plane.path_vertices_max", n)


def _obs_trace(tr, args, res, dur, fouter):
    tr.flag("traced")


def _obs_omega(tr, args, res, dur, fouter):
    tr.count("lg.omega_varpi_nodes", sum(len(p) for p, _ in args[2]))


def _obs_airy(tr, args, res, dur, fouter):
    tr.count("airy.method." + str(res.method))


def _obs_tp(tr, args, res, dur, fouter):
    if not fouter:
        return None
    method = str(res.method)
    tr.count("tp.calls_" + method)
    tr.count(f"tp.coeff_funcs_{method}_ms", 1e3 * dur)
    if method == "cauchy":
        tr.flag("cauchy")
    return method


def _obs_ratpoly(tr, args, res, dur, fouter):
    if not isinstance(args[-1], (Fraction, int)):
        tr.count("ratpoly.evals")


OBSERVERS = {
    ("plane", "monotone_path"): _obs_path,
    ("plane", "trace_level_curve"): _obs_trace,
    ("lg", "omega_varpi"): _obs_omega,
    ("airy", "airy"): _obs_airy,
    ("tp", "tp_coeff_funcs"): _obs_tp,
    ("ratpoly", "RationalPoly.__call__"): _obs_ratpoly,
}


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


def install(tracer: Tracer, package) -> Tracer:
    """Wrap every layer of ``package`` (the imported parcyl) in place."""
    pkg = package.__name__
    originals = {}  # id(original) -> (original, wrapper)
    for layer in LAYERS:
        mod = sys.modules.get(f"{pkg}.{layer}")
        if mod is None:
            try:
                mod = __import__(f"{pkg}.{layer}", fromlist=["_"])
            except ImportError:
                continue
        for name, fn in _public_functions(mod):
            w = tracer.wrap(layer, name, fn, OBSERVERS.get((layer, name)))
            originals[id(fn)] = (fn, w)
            tracer.installed.append(f"{layer}.{name}")
    # methods, wrapped on their classes
    for layer, cls_name, meths in (("ratpoly", "RationalPoly", ("__call__",)),
                                   ("ratpoly", "RationalFunc", ("__call__",)),
                                   ("coeffs", "CoeffTables", ("G", "G_star"))):
        mod = sys.modules.get(f"{pkg}.{layer}")
        cls = getattr(mod, cls_name, None)
        if cls is None:
            continue
        classes = [cls] + list(cls.__subclasses__())
        for c in classes:
            for m in meths:
                fn = c.__dict__.get(m)
                if fn is None:
                    continue
                label = f"{c.__name__}.{m}" if m == "__call__" else m
                setattr(c, m, tracer.wrap(layer, label, fn,
                                          OBSERVERS.get((layer, label))))
                tracer.installed.append(f"{layer}.{c.__name__}.{m}")
    # rebind every namespace that holds a wrapped function
    for mname, mod in list(sys.modules.items()):
        if mod is None or not (mname == pkg or mname.startswith(pkg + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = originals.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
    return tracer


# ----------------------------------------------------------------------
# per-layer metrics from spans and aggregates
# ----------------------------------------------------------------------

def load(paths) -> tuple[list, list, list]:
    """Spans, aggregates and meta records of one or more dump files."""
    out = {"span": [], "agg": [], "meta": []}
    for p in paths:
        with open(p) as fh:
            for line in fh:
                rec = json.loads(line)
                out[rec[0]].append(rec[1] if rec[0] == "meta" else rec[1:])
    return out["span"], out["agg"], out["meta"]


def merge_meta(metas: list) -> tuple[dict, dict, dict, set]:
    """Summed counters, maxima, per-op flags and installed hooks of several
    processes."""
    counts, maxima, flags, installed = {}, {}, {}, set()
    for m in metas:
        installed.update(m["installed"])
        for k, v in m["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        for k, v in m["maxima"].items():
            maxima[k] = max(maxima.get(k, 0.0), v)
        for op, f in m["flags"].items():
            flags.setdefault(int(op), set()).update(f)
    return counts, maxima, flags, installed


#: the hook each named figure needs; the per-layer figures need their
#: layer module, the traffic shares their flagging hook
REQUIRES = {
    "coeffs.get_tables_ms": "coeffs.get_tables",
    "coeffs.G_ms": "coeffs.CoeffTables.G",
    "ratpoly.evals": "ratpoly.RationalPoly.__call__",
    "plane.path_vertices_sum": "plane.monotone_path",
    "plane.path_vertices_max": "plane.monotone_path",
    "plane.trace_ms": "plane.trace_level_curve",
    "plane.traced_frac": "plane.trace_level_curve",
    "share.traced_ops": "plane.trace_level_curve",
    "share.traced_time": "plane.trace_level_curve",
    "lg.omega_varpi_ms": "lg.omega_varpi",
    "lg.omega_varpi_nodes": "lg.omega_varpi",
    "airy.airy_ms": "airy.airy",
    "airy.method_maclaurin": "airy.airy",
    "airy.method_quadrature": "airy.airy",
    "airy.method_asymptotic": "airy.airy",
    "airy.scorer_ms": "airy.wi",
    "tp.coeff_funcs_direct_ms": "tp.tp_coeff_funcs",
    "tp.coeff_funcs_cauchy_ms": "tp.tp_coeff_funcs",
    "tp.cauchy_frac": "tp.tp_coeff_funcs",
    "share.cauchy_ops": "tp.tp_coeff_funcs",
    "share.cauchy_time": "tp.tp_coeff_funcs",
    "inhom.series_ms": "inhom.inhom_series",
    "inhom.scorer_ms": "inhom.inhom_scorer",
    "oracle.refusals": "oracle",
}


def layer_metrics(spans, aggs, counts: dict, maxima: dict, op_info: dict,
                  processes: int, import_s: float, installed) -> dict:
    """Per-layer figures.  ``op_info`` maps op id -> {"dt", "flags"} for the
    ops completed in the traced phase; per-op figures divide by their
    number, per-process ones by ``processes``.  A figure whose hook is not
    in ``installed`` (a renamed or deleted function) is left out."""
    nops = max(len(op_info), 1)
    ops = set(op_info)
    per = {layer: {"calls": 0, "busy": 0.0, "self": 0.0, "fails": 0}
           for layer in LAYERS}
    named = {}      # function-outermost time by (layer, name)
    named_l = {}    # layer-outermost time by (layer, name)
    proc_named = {}
    refusals = 0
    for op, layer, name, _t0, dur, self_t, _par, outer, fouter, err, _x in spans:
        if layer == "oracle" and err == "AccuracyError" and outer and op in ops:
            refusals += 1
        if layer == "coeffs" and outer:
            proc_named[name] = proc_named.get(name, 0.0) + dur
        if op not in ops:
            continue
        d = per[layer]
        d["calls"] += 1
        d["busy"] += dur if outer else 0.0
        d["self"] += self_t
        d["fails"] += int(err is not None and outer)
        if fouter:
            named[(layer, name)] = named.get((layer, name), 0.0) + dur
        if outer:
            named_l[(layer, name)] = named_l.get((layer, name), 0.0) + dur
    for op, layer, _name, n, busy, self_t, fails in aggs:
        if op not in ops:
            continue
        d = per[layer]
        d["calls"] += n
        d["busy"] += busy
        d["self"] += self_t
        d["fails"] += fails

    out = {"parcyl.import_s": (import_s, "s")}
    for layer, d in per.items():
        out[f"{layer}.calls"] = (d["calls"] / nops, "1/op")
        out[f"{layer}.busy_ms"] = (1e3 * d["busy"] / nops, "ms/op")
        out[f"{layer}.self_ms"] = (1e3 * d["self"] / nops, "ms/op")
        out[f"{layer}.failures"] = (d["fails"], "count")

    def named_ms(layer, names):
        return 1e3 * sum(named.get((layer, n), 0.0) for n in names) / nops

    out["coeffs.get_tables_ms"] = (1e3 * proc_named.get("get_tables", 0.0)
                                   / processes, "ms")
    out["coeffs.G_ms"] = (1e3 * sum(proc_named.get(n, 0.0) for n in G_NAMES)
                          / processes, "ms")
    out["ratpoly.evals"] = (counts.get("ratpoly.evals", 0.0) / nops, "1/op")
    out["plane.path_vertices_sum"] = (
        counts.get("plane.path_vertices_sum", 0.0) / nops, "1/op")
    out["plane.path_vertices_max"] = (maxima.get("plane.path_vertices_max", 0.0),
                                      "count")
    out["plane.trace_ms"] = (named_ms("plane", ["trace_level_curve"]), "ms/op")
    out["lg.omega_varpi_ms"] = (named_ms("lg", ["omega_varpi"]), "ms/op")
    out["lg.omega_varpi_nodes"] = (counts.get("lg.omega_varpi_nodes", 0.0) / nops,
                                   "1/op")
    out["airy.airy_ms"] = (named_ms("airy", ["airy"]), "ms/op")
    for method in ("maclaurin", "quadrature", "asymptotic"):
        out[f"airy.method_{method}"] = (
            counts.get("airy.method." + method, 0.0) / nops, "1/op")
    out["airy.scorer_ms"] = (1e3 * sum(named_l.get(("airy", n), 0.0)
                                       for n in SCORER_NAMES) / nops, "ms/op")
    out["tp.coeff_funcs_direct_ms"] = (
        counts.get("tp.coeff_funcs_direct_ms", 0.0) / nops, "ms/op")
    out["tp.coeff_funcs_cauchy_ms"] = (
        counts.get("tp.coeff_funcs_cauchy_ms", 0.0) / nops, "ms/op")
    ncalls = counts.get("tp.calls_direct", 0.0) + counts.get("tp.calls_cauchy", 0.0)
    out["tp.cauchy_frac"] = (counts.get("tp.calls_cauchy", 0.0) / ncalls
                             if ncalls else 0.0, "frac")
    out["inhom.series_ms"] = (named_ms("inhom", ["inhom_series"]), "ms/op")
    out["inhom.scorer_ms"] = (named_ms("inhom", ["inhom_scorer"]), "ms/op")
    out["oracle.ms"] = (1e3 * per["oracle"]["busy"] / nops, "ms/op")
    out["oracle.refusals"] = (refusals, "count")
    out["cli.self_ms"] = (1e3 * per["cli"]["self"] / nops, "ms/op")

    # traffic shares: ops and time on traced-arc paths and Cauchy rings
    total_t = sum(v["dt"] for v in op_info.values()) or 1.0
    for flag in ("traced", "cauchy"):
        hit = [v["dt"] for v in op_info.values() if flag in v["flags"]]
        out[f"share.{flag}_ops"] = (len(hit) / nops, "frac")
        out[f"share.{flag}_time"] = (sum(hit) / total_t, "frac")
    out["plane.traced_frac"] = out["share.traced_ops"]
    have = set(installed) | {h.split(".")[0] for h in installed} | {"parcyl"}
    return {k: v for k, v in out.items()
            if REQUIRES.get(k, k.split(".")[0]) in have}
