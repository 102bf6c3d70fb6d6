"""Tests of the benchmark's span arithmetic and probe install/restore.

Run from the checkout root: ``python3 -m pytest bench -q``.
"""

import types

import pytest

import probes
import worker
from tracer import Tracer, patched, self_times, subtree, traced


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build(tracer, clock, tree):
    """Open spans for ``(name, own_time, children)`` trees on a fake clock."""
    name, own, children = tree
    span = tracer.open(name)
    clock.now += own / 2
    for child in children:
        build(tracer, clock, child)
    clock.now += own - own / 2
    tracer.close(span)


TREE = ("cli.fit", 0.5, [
    ("inference.fit", 1.0, [
        ("covariance.correlation_matrix_arrays", 3.0, [
            ("covariance.matern_values", 2.0, []),
        ]),
        ("numerics.cholesky", 0.25, []),
    ]),
    ("dataio.load_grid", 0.125, []),
])


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tr = Tracer(clock)
    build(tr, clock, TREE)
    names = [s.name for s in tr.spans]
    selfs = dict(zip(names, self_times(tr.spans)))
    assert selfs == {"cli.fit": 0.5, "inference.fit": 1.0,
                     "covariance.correlation_matrix_arrays": 3.0,
                     "covariance.matern_values": 2.0, "numerics.cholesky": 0.25,
                     "dataio.load_grid": 0.125}
    root = tr.spans[0]
    assert root.duration == 6.875
    assert sum(selfs.values()) == root.duration
    assert subtree(tr.spans, 1) == [1, 2, 3, 4]


def test_close_out_of_order_is_an_error():
    tr = Tracer()
    outer = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(outer)


def test_layer_metrics_count_lags_once_and_sum_self_times():
    clock = FakeClock()
    tr = Tracer(clock)
    build(tr, clock, TREE)
    tr.spans[2].counts["lags"] = 100
    tr.spans[3].counts["lags"] = 100      # nested: already counted by its parent
    m, _ = probes.layer_metrics(tr.spans, cycles=1, overhead_s=0.0)
    assert m["covariance.self_s"][0] == 5.0
    assert m["covariance.lags"][0] == 100
    assert m["covariance.ns_per_lag"][0] == pytest.approx(5e7)
    assert m["numerics.cholesky.calls"][0] == 1
    assert m["cli.fit_s"][0] == 6.875
    assert m["cli.fit.self_s"][0] == 0.5
    assert m["trace.self_sum_rel_err"][0] == 0.0


def test_traced_wrapper_records_span_and_counts():
    tr = Tracer()
    f = traced(tr, "dataio.thing", lambda a, b=1: a + b,
               count=lambda args, kwargs, result: {"n": result})
    assert f(2, b=3) == 5
    assert [(s.name, s.counts) for s in tr.spans] == [("dataio.thing", {"n": 5})]


def test_patched_restores_on_exit_and_on_error():
    mod = types.ModuleType("m")
    mod.f = orig_f = lambda: "orig"

    class K:
        def g(self):
            return "orig"
    orig_g = K.__dict__["g"]

    with patched([(mod, "f", lambda: "new"), (K, "g", lambda self: "new")]):
        assert mod.f() == "new" and K().g() == "new"
    assert mod.f is orig_f and K.__dict__["g"] is orig_g

    with pytest.raises(ValueError):
        with patched([(mod, "f", lambda: "new")]):
            raise ValueError
    assert mod.f is orig_f


def test_probes_reach_every_import_site_and_are_removed():
    fc = worker.import_fieldcal()
    before = {(name, attr): value for name in probes.MODULES
              for attr, value in vars(fc[name]).items()}
    solve = fc["numerics"].CholeskyFactor.__dict__["solve"]
    tr = Tracer()
    with patched(probes.replacements(tr, fc)):
        for name, attr in (("cli", "load_grid"), ("cli", "fit_model"),
                           ("cli", "event_statistics"), ("inference", "event_statistics"),
                           ("inference", "cholesky"), ("diagnostics", "cholesky"),
                           ("diagnostics", "_matern_values"), ("covariance", "_matern_values"),
                           ("prediction", "correlation_block"),
                           ("diagnostics", "pivoted_cholesky"), ("inference", "nelder_mead"),
                           ("cli", "predict_grid")):
            assert vars(fc[name])[attr] is not before[(name, attr)], (name, attr)
        assert fc["numerics"].CholeskyFactor.__dict__["solve"] is not solve
    after = {(name, attr): value for name in probes.MODULES
             for attr, value in vars(fc[name]).items()}
    assert after == before
    assert fc["numerics"].CholeskyFactor.__dict__["solve"] is solve


def test_nelder_mead_probe_counts_evaluations_and_rejections():
    fc = worker.import_fieldcal()
    tr = Tracer()
    opts = fc["numerics"].OptimizerOptions(max_evals=30)

    def objective(z):   # minimum on the edge of a rejected region
        return float("inf") if z[0] < -0.5 else (z[0] + 1.0) ** 2

    with patched(probes.replacements(tr, fc)):
        fc["inference"].nelder_mead(objective, [0.5], opts)
    evals = [s for s in tr.spans if s.name == "inference.objective"]
    assert tr.spans[0].name == "numerics.nelder_mead"
    assert all(s.parent == 0 for s in evals)
    assert 0 < sum(s.counts["inf"] for s in evals) < len(evals) <= 31
