"""One benchmark process: set up a workload's inputs, then run its commands.

Started by ``run.py`` with one BLAS thread. Every process sets up the
workload's inputs and reports its set-up time, the CPU time from process
start to ready. ``--seconds 0`` stops there; otherwise the workload's CLI
commands run in a closed loop, one at a time through ``fieldcal.cli.main``,
in passes: at least two, and none that would take their wall time past
``--seconds``. Every command's outputs are checked outside the timed
region. With ``--trace 1`` passes alternate between untraced and traced, so
the tracing overhead is measured in the same process. The last line of
stdout is one JSON object for ``run.py``.
"""

import argparse
import ctypes
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy import linalg
from scipy.special import kv

import probes
import synth
from run import WORKLOADS
from tracer import Tracer, patched

ROOT = Path(__file__).resolve().parents[1]

FIT_EVALS = 12
EVENT = "ev00"
FOOTPRINT_N = 200
HOLDOUT = 30
VARIOGRAM_BINS = 15
SIM_POINTS = 1000
SIM_DRAWS = 100
SIM_SEED = 7
CHECK_CELLS = 16
N_EVENTS = 10
N_STATIONS = 200


def import_fieldcal():
    """The fieldcal modules of this checkout's ``src``, by short name."""
    sys.path.insert(0, str(ROOT / "src"))
    fc = {name: importlib.import_module(f"fieldcal.{name}") for name in probes.MODULES}
    where = Path(fc["cli"].__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise RuntimeError(f"imported fieldcal from {where}, not from this checkout")
    return fc


def load_datasets(fc, cfg_path):
    """The run config and event datasets exactly as ``fieldcal fit`` pairs them."""
    cfg = fc["cli"].parse_config(cfg_path)
    stations = fc["dataio"].load_stations(cfg.station_paths[0])
    datasets = [fc["dataio"].pair_and_threshold(stations, fc["dataio"].load_grid(g),
                                                cfg.threshold_u)
                for g in cfg.grid_paths]
    return cfg, datasets


def true_theta(fc):
    return fc["covariance"].Hyperparameters(**synth.TRUE_THETA)


def build_artifact(fc, cfg_path, path):
    """``save_fit`` of the model at the generating theta."""
    inf = fc["inference"]
    cfg, datasets = load_datasets(fc, cfg_path)
    theta = true_theta(fc)
    events = tuple(inf.event_statistics(ds, theta, cfg.prior) for ds in datasets)
    lp = inf.log_posterior_theta(datasets, theta, cfg.prior)
    inf.save_fit(inf.ModelFit(theta=theta, events=events, prior=cfg.prior,
                              log_posterior=lp), path)


def setup(fc, workload, seed, work):
    """Write the workload's inputs; returns (commands, state, input description)."""
    corpus = synth.make_corpus(seed, N_EVENTS, N_STATIONS)
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    stations = work / "stations.csv"
    synth.write_stations(stations, corpus)
    grids = []
    for ev in corpus:
        grids.append(work / f"grid_{ev['event']}.fg")
        synth.write_grid(grids[-1], ev["event"], ev["grid"])
    cfg = work / "run.cfg"
    cfg.write_text(f"stations = {stations}\ngrids = {','.join(map(str, grids))}\n"
                   f"threshold = {synth.THRESHOLD:g}\nmax_evals = {FIT_EVALS}\n"
                   f"holdout = {HOLDOUT}\nseed = 0\noutput_dir = {out}\n",
                   encoding="utf-8")
    inputs = [stations, cfg, *grids]
    shape = {"events": N_EVENTS, "stations_per_event": N_STATIONS,
             "grid": f"{synth.GRID_N}x{synth.GRID_N}"}
    state = {"seed": seed, "work": work, "out": out, "cfg": cfg}

    if workload == "fit-storms":
        shape["max_evals"] = FIT_EVALS
        commands = [("fit", ["fit", "-c", str(cfg)])]
    else:
        artifact = work / "truth.fit"
        build_artifact(fc, cfg, artifact)
        state["artifact"] = artifact
        if workload == "grid-footprint":
            values, spacing = synth.footprint(corpus[0]["field"], FOOTPRINT_N)
            fp = work / "footprint.fg"
            synth.write_grid(fp, EVENT, values, spacing)
            inputs.append(fp)
            state["footprint"] = fp
            shape.update(footprint=f"{FOOTPRINT_N}x{FOOTPRINT_N}",
                         footprint_cells=int(np.isfinite(values).sum()))
            commands = [("predict_grid", ["predict", "-f", str(artifact), "-e", EVENT,
                                          "--grid", str(fp), "-o", str(out)])]
        else:
            loc, x = synth.target_points(corpus[0]["field"],
                                         np.random.default_rng([seed, 1]), SIM_POINTS)
            points = work / "targets.csv"
            synth.write_points(points, loc, x)
            inputs.append(points)
            shape.update(holdout=HOLDOUT, variogram_bins=VARIOGRAM_BINS,
                         sim_points=SIM_POINTS, sim_draws=SIM_DRAWS)
            commands = [
                ("validate", ["validate", "-f", str(artifact), "-c", str(cfg)]),
                ("variogram", ["variogram", "-f", str(artifact), "-e", EVENT, "--var", "h1",
                               "--bins", str(VARIOGRAM_BINS), "-o", str(out)]),
                ("simulate", ["simulate", "-f", str(artifact), "-e", EVENT,
                              "--points", str(points), "-n", str(SIM_DRAWS),
                              "--seed", str(SIM_SEED), "-o", str(out)]),
            ]
    return commands, state, {"shape": shape, "hash": synth.hash_files(inputs)}


# ---------------------------------------------------------------- checks

def read_csv(path):
    """(header, rows) of a fieldcal CSV, skipping its ``#`` comment lines."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def require(cond, message):
    if not cond:
        raise AssertionError(message)


def reference_log_posterior(datasets, prior):
    """Conjugate log evidence at the generating theta, from synth's kernel.

    Same formula as fieldcal's, written with scipy ``kv`` correlations
    and LAPACK solves: -(K+d)/2 log sigma2 - 1/2 log|A| + 1/2 log|B*|.
    """
    total = 0.0
    binv = np.linalg.inv(prior.B)
    for ds in datasets:
        k = len(ds.x)
        a = synth.smooth_correlation(ds.locations, ds.x) + synth.TRUE_THETA["lambda2"] * np.eye(k)
        fa = linalg.cho_factor(a, lower=True)
        h = np.column_stack([ds.x ** j for j in range(prior.q)])
        ainv_y = linalg.cho_solve(fa, ds.y)
        ainv_h = linalg.cho_solve(fa, h)
        bstar_inv = binv + h.T @ ainv_h
        beta = np.linalg.solve(bstar_inv, binv @ prior.b + h.T @ ainv_y)
        s = prior.a + prior.b @ binv @ prior.b + ds.y @ ainv_y - beta @ bstar_inv @ beta
        sigma2 = s / (k + prior.d)
        total += (-(k + prior.d) * 0.5 * math.log(sigma2)
                  - np.sum(np.log(np.diag(fa[0])))
                  - 0.5 * np.linalg.slogdet(bstar_inv)[1])
    return float(total)


def matches_6g(stored, exact, rtol=1e-9):
    """Whether a 6-significant-digit field value is ``exact`` to ``rtol``."""
    return any(float(f"{exact * (1 + e):.6g}") == stored for e in (0.0, rtol, -rtol))


class Checks:
    """Output checks per command; run-level results land in ``self.quality``.

    The first pass checks each command's outputs by content. Every command
    is seeded, so later passes must reproduce those files byte for byte,
    which is checked instead.
    """

    def __init__(self, fc, state):
        self.fc = fc
        self.s = state
        self.quality = {}
        self.first = {}

    def outputs(self, name):
        out = self.s["out"]
        if name == "fit":
            return [out / "fit.out", out / "fit_summary.csv"]
        if name == "predict_grid":
            return [out / f"predict_{EVENT}_{g}.fg"
                    for g in ("mean", "sd", "diff", "ratio", "extrapolated")]
        if name == "validate":
            return [out / "validate_summary.csv"] + [
                out / f"validate_ev{j:02d}_{kind}.csv"
                for j in range(N_EVENTS) for kind in ("standardized", "pivoted")]
        if name == "variogram":
            return [out / f"variogram_{EVENT}_h1.csv"]
        return [out / f"simulate_{EVENT}.csv"]

    def __call__(self, name):
        blobs = [path.read_bytes() for path in self.outputs(name)]
        if name not in self.first:
            getattr(self, name)()
            self.first[name] = blobs
        require(blobs == self.first[name], f"{name} outputs differ from the first pass")

    def fit(self):
        inf = self.fc["inference"]
        if "lp_true" not in self.quality:
            cfg, datasets = load_datasets(self.fc, self.s["cfg"])
            lp_true = inf.log_posterior_theta(datasets, true_theta(self.fc), cfg.prior)
            lp_ref = reference_log_posterior(datasets, cfg.prior)
            require(abs(lp_true - lp_ref) <= 1e-9 * abs(lp_ref),
                    f"log posterior at the generating theta {lp_true!r} "
                    f"!= reference {lp_ref!r}")
            theta0 = inf.default_theta0(datasets)
            self.quality.update(lp_true=lp_true, lp_ref=lp_ref,
                                lp_theta0=inf.log_posterior_theta(datasets, theta0, cfg.prior))
        out = self.s["out"]
        fitted = inf.load_fit(out / "fit.out")
        lp = fitted.log_posterior
        lp0 = self.quality["lp_theta0"]
        require(math.isfinite(lp), "fitted log posterior is not finite")
        require(lp >= lp0 - 1e-9 * abs(lp0),
                f"fitted log posterior {lp} is below the start's {lp0}")
        _, rows = read_csv(out / "fit_summary.csv")
        require(len(rows) == N_EVENTS, f"fit_summary.csv has {len(rows)} rows")
        self.quality["lp_fit"] = lp
        self.quality["fit_lp_gap"] = self.quality["lp_true"] - lp

    def predict_grid(self):
        fc, out = self.fc, self.s["out"]
        fp = fc["dataio"].load_grid(self.s["footprint"])
        valid = np.isfinite(fp.values)
        grids = {}
        for name in ("mean", "sd", "diff", "ratio", "extrapolated"):
            g = fc["dataio"].load_grid(out / f"predict_{EVENT}_{name}.fg")
            require((g.n1, g.n2) == (fp.n1, fp.n2), f"{name} grid has dims {g.n1}x{g.n2}")
            require(np.array_equal(np.isfinite(g.values), valid),
                    f"{name} grid's missing cells differ from the footprint's")
            grids[name] = g.values
        require(np.all(grids["extrapolated"][valid] == 0.0),
                "cells above the threshold are flagged as extrapolated")
        rng = np.random.default_rng([self.s["seed"], 2])
        cells = rng.choice(np.flatnonzero(valid.ravel()), CHECK_CELLS, replace=False)
        pf = fc["prediction"].posterior_field(
            fc["inference"].load_fit(self.s["artifact"]), EVENT, (fp.cell_centers()[cells], fp.values.ravel()[cells]))
        for k, c in enumerate(cells):
            require(matches_6g(grids["mean"].ravel()[c], pf.mean[k]),
                    f"mean grid cell {c}: {grids['mean'].ravel()[c]} vs pointwise {pf.mean[k]}")
            require(matches_6g(grids["sd"].ravel()[c], pf.sd[k]),
                    f"sd grid cell {c}: {grids['sd'].ravel()[c]} vs pointwise {pf.sd[k]}")

    def validate(self):
        out = self.s["out"]
        header, rows = read_csv(out / "validate_summary.csv")
        require(len(rows) == N_EVENTS, f"validate_summary.csv has {len(rows)} rows")
        p = np.array([float(r[header.index("p_value")]) for r in rows])
        require(np.all(np.isfinite(p) & (p >= 0) & (p <= 1)), f"bad p-values {p}")
        for ev in (f"ev{j:02d}" for j in range(N_EVENTS)):
            for kind in ("standardized", "pivoted"):
                _, r = read_csv(out / f"validate_{ev}_{kind}.csv")
                require(len(r) == HOLDOUT, f"validate_{ev}_{kind}.csv has {len(r)} rows")

    def variogram(self):
        _, rows = read_csv(self.s["out"] / f"variogram_{EVENT}_h1.csv")
        require(len(rows) == VARIOGRAM_BINS, f"variogram has {len(rows)} rows")
        require(all(math.isfinite(float(v)) for r in rows for v in r[1:]),
                "variogram has non-finite entries")

    def simulate(self):
        header, rows = read_csv(self.s["out"] / f"simulate_{EVENT}.csv")
        require(len(rows) == SIM_POINTS and len(header) == 4 + SIM_DRAWS,
                f"simulate output is {len(rows)}x{len(header)}")


# ---------------------------------------------------------------- run

def _blas_threads():
    """Thread counts reported by each loaded OpenBLAS, read through ctypes."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    counts = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    with open("/proc/loadavg", encoding="utf-8") as fh:
        load = fh.read().split()[:3]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": _blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "loadavg": load}


def run_command(fc, argv):
    try:
        return fc["cli"].main(argv)
    except SystemExit as exc:          # argparse rejects the command line
        return exc.code if isinstance(exc.code, int) else 2


class Reference:
    """A fixed mix of the kinds of work the commands do, to track CPU speed.

    On a shared machine the CPU's speed drifts by 10-20% from one minute
    to the next. This mix (scipy ``kv``, a LAPACK Cholesky, float
    formatting) is timed in CPU seconds before and after every pass; a
    run's median pass time over its median reference time cancels most of
    that drift between runs, while a change to fieldcal cannot move it.
    """

    REPEATS = 7

    def __init__(self):
        rng = np.random.default_rng(0)
        self.z = np.abs(rng.normal(3.0, 2.0, 20000)) + 0.01
        a = rng.normal(size=(200, 200))
        self.a = a @ a.T + 200.0 * np.eye(200)

    def __call__(self):
        times = []
        for _ in range(self.REPEATS):
            t0 = time.process_time()
            kv(1.2, self.z)
            linalg.cholesky(self.a, lower=True)
            ",".join(f"{v:.6g}" for v in self.z[:2000])
            times.append(time.process_time() - t0)
        return statistics.median(times)


def measure(fc, commands, checks, seconds, trace):
    """Passes of the workload's commands; each records wall and CPU seconds.

    CPU time (user + system, ``time.process_time``) is what the JSON
    reports: on a shared virtual machine the process is descheduled for
    up to a seventh of a command's wall time, which the CPU time excludes.
    """
    tracer = Tracer(time.process_time)
    reference = Reference()
    result = {"passes": [], "reference": [], "attempted": 0, "failed": 0, "errors": []}
    busy = 0.0
    while True:
        passes = result["passes"]
        traced = bool(trace) and len(passes) % 2 == 1
        wall, cpu, codes = {}, {}, {}
        result["reference"].append(reference())
        with patched(probes.replacements(tracer, fc)) if traced else nullcontext():
            for name, argv in commands:
                w0, c0 = time.perf_counter(), time.process_time()
                with tracer.span(f"cli.{name}") if traced else nullcontext():
                    codes[name] = run_command(fc, argv)
                cpu[name] = time.process_time() - c0
                wall[name] = time.perf_counter() - w0
        passes.append({"traced": traced, "wall": wall, "cpu": cpu})
        result["reference"].append(reference())
        # checks call fieldcal too, so they run with the probes removed
        for name, rc in codes.items():
            result["attempted"] += 1
            try:
                require(rc == 0, f"exit code {rc}")
                checks(name)
            except Exception:   # count the failure, keep measuring
                result["failed"] += 1
                result["errors"].append(f"{name}: {traceback.format_exc(limit=3)}")
        busy += sum(wall.values())
        # stop before a pass that would overrun the budget, after at least two
        if len(passes) >= 2 and busy * (len(passes) + 1) / len(passes) > seconds:
            return result, tracer


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="time.monotonic() just before this process was started")
    args = p.parse_args()

    fc = import_fieldcal()
    work = Path(args.workdir)
    commands, state, inputs = setup(fc, args.workload, args.seed, work)
    report = {"setup_s": time.process_time(),
              "setup_wall_s": time.monotonic() - args.spawned_at,
              "inputs": inputs, "env": environment()}
    if args.seconds > 0:
        checks = Checks(fc, state)
        result, tracer = measure(fc, commands, checks, args.seconds, args.trace)
        report.update(result)
        report["quality"] = checks.quality
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            def mean_cpu(traced):
                return np.mean([sum(p["cpu"].values()) for p in result["passes"]
                                if p["traced"] == traced])
            layers, report["trace_notes"] = probes.layer_metrics(
                tracer.spans, sum(p["traced"] for p in result["passes"]),
                float(mean_cpu(True) - mean_cpu(False)))
            layers["inference.fit_lp_gap"] = (checks.quality.get("fit_lp_gap", 0.0), "nats")
            report["layers"] = layers
            with open(work / "spans.json", "w", encoding="utf-8") as fh:
                json.dump([[s.name, s.start, s.end, s.parent, s.counts]
                           for s in tracer.spans], fh)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
