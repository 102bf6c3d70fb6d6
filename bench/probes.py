"""Where the traced run wraps fieldcal, and the per-layer metrics it derives.

Each probe names a function by its defining module. The wrapper is
installed on every fieldcal module attribute bound to that function, so
calls through an import site (``cli.load_grid``, ``inference.cholesky``,
``prediction.correlation_block``, ...) are timed as well as calls inside
the defining module.
"""

import functools
import math
import tracemalloc

import numpy as np

from tracer import self_times, subtree, traced

# the fieldcal modules, which are also the layers: a span's name starts
# with its layer (covariance first, as its metrics lead the list)
MODULES = ("covariance", "numerics", "inference", "dataio", "prediction",
           "diagnostics", "cli")
COMMANDS = ("fit", "predict_grid", "validate", "variogram", "simulate")


def _lags_matrix(args, kwargs, result):
    n = len(args[1])
    return {"lags": n * (n - 1) // 2}


def _lags_block(args, kwargs, result):
    return {"lags": len(args[1]) * len(args[3])}


def _lags_values(args, kwargs, result):
    return {"lags": int(np.size(args[0]))}


def _order(args, kwargs, result):
    return {"m": len(args[0])}


def _cells_read(args, kwargs, result):
    return {"cells": result.n1 * result.n2}


def _cells_written(args, kwargs, result):
    return {"cells": args[0].n1 * args[0].n2}


# (defining module, function, span name, counts from the call)
PROBES = (
    ("covariance", "correlation_matrix_arrays", "covariance.correlation_matrix_arrays", _lags_matrix),
    ("covariance", "correlation_block", "covariance.correlation_block", _lags_block),
    ("covariance", "_matern_values", "covariance.matern_values", _lags_values),
    ("numerics", "cholesky", "numerics.cholesky", None),
    ("numerics", "pivoted_cholesky", "numerics.pivoted_cholesky", _order),
    ("inference", "event_statistics", "inference.event_statistics", None),
    ("inference", "log_posterior_theta", "inference.log_posterior_theta", None),
    ("inference", "fit", "inference.fit", None),
    ("inference", "save_fit", "inference.save_fit", None),
    ("inference", "load_fit", "inference.load_fit", None),
    ("dataio", "load_stations", "dataio.load_stations", None),
    ("dataio", "load_grid", "dataio.load_grid", _cells_read),
    ("dataio", "save_grid", "dataio.save_grid", _cells_written),
    ("dataio", "load_points", "dataio.load_points", None),
    ("dataio", "pair_and_threshold", "dataio.pair_and_threshold", None),
    ("dataio", "holdout_split", "dataio.holdout_split", None),
    ("prediction", "posterior_field", "prediction.posterior_field", None),
    ("prediction", "predictive_measurements", "prediction.predictive_measurements", None),
    ("prediction", "sample_field", "prediction.sample_field", None),
    ("prediction", "export_grids", "prediction.export_grids", None),
    ("diagnostics", "semivariogram", "diagnostics.semivariogram", None),
    ("diagnostics", "validation_report", "diagnostics.validation_report", None),
)


def _nelder_mead(tracer, fn):
    """Span around the search, and one around each objective it calls."""
    @functools.wraps(fn)
    def wrapper(objective, x0, opts):
        def counted(z):
            with tracer.span("inference.objective") as s:
                v = objective(z)
                s.counts["inf"] = int(v == math.inf)
            return v
        with tracer.span("numerics.nelder_mead"):
            return fn(counted, x0, opts)
    return wrapper


def _predict_grid(tracer, fn):
    """Span with the tracemalloc peak of the call and the cells predicted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span("prediction.predict_grid") as s:
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                s.counts["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2 ** 20
            finally:
                tracemalloc.stop()
            s.counts["cells"] = len(result.mean)
        return result
    return wrapper


def replacements(tracer, fc):
    """``(owner, attribute, wrapper)`` for every site of every probe.

    ``fc`` maps the names in MODULES to the imported fieldcal modules.
    """
    wrappers = []
    for mod, fname, span, count in PROBES:
        orig = getattr(fc[mod], fname)
        wrappers.append((orig, traced(tracer, span, orig, count)))
    for mod, fname, make in (("numerics", "nelder_mead", _nelder_mead),
                             ("prediction", "predict_grid", _predict_grid)):
        orig = getattr(fc[mod], fname)
        wrappers.append((orig, make(tracer, orig)))
    out = []
    for orig, wrapper in wrappers:
        for name in MODULES:
            out.extend((fc[name], attr, wrapper)
                       for attr, value in vars(fc[name]).items() if value is orig)
    solve = fc["numerics"].CholeskyFactor.solve
    out.append((fc["numerics"].CholeskyFactor, "solve",
                traced(tracer, "numerics.cholesky_solve", solve)))
    return out


def _quantile_tail(values):
    """(p50, highest listed percentile with >= 10 samples beyond it, that percentile)."""
    if not values:
        return 0.0, 0.0, 0
    v = np.sort(values)
    pct = 50
    for p in (75, 90, 95, 99, 99.9):
        if len(v) * (1.0 - p / 100.0) >= 10:
            pct = p
    return float(np.median(v)), float(np.percentile(v, pct)), pct


def layer_metrics(spans, cycles, overhead_s):
    """Per-layer metrics, each per traced pass of the workload's commands.

    ``cycles`` is the number of traced passes the spans cover. Returns
    the metrics as ``{name: (value, unit)}`` and a dict of notes.
    """
    selfs = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def total(name):
        return sum(spans[i].duration for i in by_name.get(name, ())) / cycles

    def self_of(name):
        return sum(selfs[i] for i in by_name.get(name, ())) / cycles

    def calls(name):
        return len(by_name.get(name, ())) / cycles

    def summed(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by_name.get(name, ())) / cycles

    def largest(name, key):
        return max((spans[i].counts.get(key, 0) for i in by_name.get(name, ())), default=0)

    layer_self = dict.fromkeys(MODULES, 0.0)
    for s, t in zip(spans, selfs):
        layer_self[s.layer] += t / cycles
    cov_self = layer_self["covariance"]
    # lags are counted once, at the outermost covariance span
    lags = sum(s.counts.get("lags", 0) for s in spans if s.layer == "covariance"
               and (s.parent is None or spans[s.parent].layer != "covariance")) / cycles
    in_fit = set()
    for root in by_name.get("inference.fit", ()):
        in_fit.update(subtree(spans, root))
    objective_ms = [1e3 * spans[i].duration
                    for i in by_name.get("inference.log_posterior_theta", ()) if i in in_fit]
    p50, tail, tail_pct = _quantile_tail(objective_ms)
    evals = calls("inference.objective")

    m = {
        "covariance.self_s": (cov_self, "s"),
        "covariance.lags": (lags, "count"),
        "covariance.ns_per_lag": (1e9 * cov_self / lags if lags else 0.0, "ns"),
        "numerics.cholesky_s": (total("numerics.cholesky"), "s"),
        "numerics.cholesky.calls": (calls("numerics.cholesky"), "count"),
        "numerics.cholesky_solve_s": (total("numerics.cholesky_solve"), "s"),
        "numerics.pivoted_cholesky_s": (total("numerics.pivoted_cholesky"), "s"),
        "numerics.pivoted_cholesky.m": (largest("numerics.pivoted_cholesky", "m"), "count"),
        "numerics.nelder_mead.self_s": (self_of("numerics.nelder_mead"), "s"),
        "numerics.nelder_mead.evals": (evals, "count"),
        "numerics.nelder_mead.inf_ratio": (
            summed("inference.objective", "inf") / evals if evals else 0.0, "1"),
        "inference.objective_ms.p50": (p50, "ms"),
        "inference.objective_ms.tail": (tail, "ms"),
        "inference.event_statistics.self_s": (self_of("inference.event_statistics"), "s"),
        "inference.event_statistics.calls": (calls("inference.event_statistics"), "count"),
        "inference.load_fit_s": (total("inference.load_fit"), "s"),
        "inference.save_fit_s": (total("inference.save_fit"), "s"),
        "dataio.load_grid_s": (total("dataio.load_grid"), "s"),
        "dataio.load_grid.cells": (summed("dataio.load_grid", "cells"), "count"),
        "dataio.save_grid_s": (total("dataio.save_grid"), "s"),
        "dataio.save_grid.cells": (summed("dataio.save_grid", "cells"), "count"),
        "dataio.load_stations_s": (total("dataio.load_stations"), "s"),
        "dataio.pair_and_threshold_s": (total("dataio.pair_and_threshold"), "s"),
        "prediction.predict_grid.self_s": (self_of("prediction.predict_grid"), "s"),
        "prediction.cells": (summed("prediction.predict_grid", "cells"), "count"),
        "prediction.predict_grid.peak_mb": (largest("prediction.predict_grid", "peak_mb"), "MB"),
        "prediction.posterior_field.self_s": (self_of("prediction.posterior_field"), "s"),
        "prediction.sample_field.self_s": (self_of("prediction.sample_field"), "s"),
        "prediction.export_grids_s": (total("prediction.export_grids"), "s"),
        "diagnostics.semivariogram.self_s": (self_of("diagnostics.semivariogram"), "s"),
        "diagnostics.validation_report.self_s": (self_of("diagnostics.validation_report"), "s"),
    }
    for layer in MODULES[1:]:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    for cmd in COMMANDS:
        m[f"cli.{cmd}_s"] = (total(f"cli.{cmd}"), "s")
        m[f"cli.{cmd}.self_s"] = (self_of(f"cli.{cmd}"), "s")

    # every span sits under a command span, so the self times of a
    # command's subtree must add up to the command's traced duration
    worst = 0.0
    for cmd in COMMANDS:
        for root in by_name.get(f"cli.{cmd}", ()):
            dur = spans[root].duration
            err = abs(sum(selfs[i] for i in subtree(spans, root)) - dur) / dur
            worst = max(worst, err)
    m["trace.self_sum_rel_err"] = (worst, "1")
    m["trace.spans"] = (len(spans) / cycles, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m, {"objective_samples": len(objective_ms), "objective_tail_percentile": tail_pct}
