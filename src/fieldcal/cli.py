"""Command-line pipeline: fit, predict, validate, variogram, simulate.

Configuration is a flat key=value text file; ``--set key=value`` flags
override it. Every output file starts with comment headers recording
the tool version, a 12-hex config hash, and the hyperparameters, so a
run can be audited from its outputs alone. This module owns the output
CSV format: every table goes through :func:`_write_csv`, floats as
``%.6g`` and text cells quoted as RFC 4180 asks. Exit codes: 0 success,
1 internal error, 2 user or data error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import logging
import os
import sys
import zlib
from dataclasses import dataclass

import numpy as np

from . import __version__
from .covariance import Hyperparameters
from .dataio import (DataError, EmptyDataset, _write_text, holdout_split,
                     load_grid, load_points, load_stations,
                     pair_and_threshold, rmse, save_grid)
from .diagnostics import EmptyBin, semivariogram, validation_report
from .inference import (ArtifactError, ModelFit, OptimizationFailed,
                        PriorSpec, TooFewObservations, UnknownEvent,
                        event_statistics, fit as fit_model, load_fit,
                        read_fit, save_fit)
from .numerics import NotPositiveDefinite, NotPSD, OptimizerOptions
from .prediction import (CovarianceTooLarge, export_grids, posterior_field,
                         predict_grid, sample_field)

log = logging.getLogger("fieldcal")


class ConfigError(Exception):
    """Bad configuration file or override."""


class InsufficientStations(Exception):
    """Not enough stations for the requested holdout."""


USER_ERRORS = (DataError, ConfigError, InsufficientStations, ArtifactError,
               TooFewObservations, OptimizationFailed, UnknownEvent, EmptyBin,
               NotPositiveDefinite, NotPSD, CovarianceTooLarge,
               FileNotFoundError)

_CONFIG_DEFAULTS = {
    "threshold": "15",
    "prior_b": "0,1,0",
    "prior_B_diag": "0.1,1,1",
    "a": "0",
    "d": "0",
    "sigma_y": "3",
    "basis_degree": "2",
    "max_evals": "1500",
    "restarts": "1",
    "simplex_tolerance": "1e-6",
    "holdout": "30",
    "seed": "0",
    "output_dir": ".",
    "theta0": "",
}
_REQUIRED_KEYS = ("stations", "grids")


@dataclass(frozen=True)
class RunConfig:
    """Resolved run settings (defaults, file, then flag overrides)."""

    station_paths: tuple
    grid_paths: tuple
    threshold_u: float
    prior: PriorSpec
    optimizer: OptimizerOptions
    validation_holdout: int
    seed: int
    output_dir: str
    theta0: Hyperparameters | None
    config_hash: str


def _parse_kv_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, _, val = line.partition("=")
            key = key.strip()
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val.strip()
    return values


def _paths(text):
    """A comma-separated list of paths, read as one CSV row: a path that
    holds a comma is double-quoted, with any double quote in it doubled."""
    return tuple(next(csv.reader([text])))


def _floats(text, what):
    try:
        return [float(v) for v in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError(f"bad numeric list for {what}: {text!r}") from None


def parse_config(path, overrides=()) -> RunConfig:
    """Load a config file, apply --set overrides, and resolve defaults."""
    values = dict(_CONFIG_DEFAULTS)
    file_values = _parse_kv_file(path)
    known = set(_CONFIG_DEFAULTS) | set(_REQUIRED_KEYS)
    for source in (file_values, dict(overrides)):
        for key, val in source.items():
            if key not in known:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = val
    for key in _REQUIRED_KEYS:
        if not values.get(key):
            raise ConfigError(f"config key {key!r} is required")

    canonical = "\n".join(f"{k}={values[k]}" for k in sorted(values))
    cfg_hash = hashlib.sha256(canonical.encode()).hexdigest()[:12]

    b = np.array(_floats(values["prior_b"], "prior_b"))
    bdiag = _floats(values["prior_B_diag"], "prior_B_diag")
    if len(bdiag) != len(b):
        raise ConfigError("prior_b and prior_B_diag must have equal lengths")
    try:
        degree = int(values["basis_degree"])
        prior = PriorSpec(b=b, B=np.diag(bdiag), a=float(values["a"]),
                          d=float(values["d"]), sigmaY=float(values["sigma_y"]),
                          basis_degree=degree)
        opts = OptimizerOptions(
            max_evals=int(values["max_evals"]),
            simplex_tolerance=float(values["simplex_tolerance"]),
            restarts=int(values["restarts"]),
            seed=int(values["seed"]))
        theta0 = None
        if values["theta0"]:
            t = _floats(values["theta0"], "theta0")
            if len(t) != 7:
                raise ConfigError(
                    "theta0 needs 7 values: omega,lambda2,phi1,phi2,nu1,nu2,phiX")
            theta0 = Hyperparameters(*t)
        cfg = RunConfig(
            station_paths=_paths(values["stations"]),
            grid_paths=_paths(values["grids"]),
            threshold_u=float(values["threshold"]),
            prior=prior, optimizer=opts,
            validation_holdout=int(values["holdout"]),
            seed=int(values["seed"]),
            output_dir=values["output_dir"],
            theta0=theta0, config_hash=cfg_hash)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not (np.isfinite(cfg.threshold_u) and cfg.threshold_u >= 0.0):
        raise ConfigError("threshold must be finite and >= 0")
    return cfg


def _header(theta: Hyperparameters | None, cfg_hash: str):
    lines = [f"fieldcal {__version__}", f"config {cfg_hash}"]
    if theta is not None:
        td = theta.as_dict()
        lines.append("theta " + " ".join(f"{k}={td[k]:.10g}" for k in td))
    return lines


def _csv_text(value) -> str:
    """A text cell, quoted as RFC 4180 asks when it holds a comma, a quote
    or a line break, so every row reads back with its header's width."""
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(path, comments, columns):
    """Write ``# `` comment lines and a table as CSV, atomically.
    ``columns`` maps each header name, in order, to its column: a float
    ndarray is written as ``%.6g``, any other column as text cells."""
    k = len(columns)
    n = len(next(iter(columns.values())))
    cells, fmt = [None] * (n * k), []
    for j, col in enumerate(columns.values()):
        if isinstance(col, np.ndarray) and col.dtype.kind == "f":
            fmt.append("%.6g")
            cells[j::k] = col.tolist()
        else:
            fmt.append("%s")
            cells[j::k] = [_csv_text(v) for v in col]
    head = "".join(f"# {c}\n" for c in comments) + ",".join(columns) + "\n"
    # one %-format over the file, on plain Python values, so no second
    # copy of its text is made; the head's own % signs are escaped
    _write_text(path, (head.replace("%", "%%") + (",".join(fmt) + "\n") * n)
                % tuple(cells))


def _hash_parts(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:12]


def _artifact_hash(fit_path, *args) -> str:
    with open(fit_path, "rb") as fh:
        return _hash_parts(fh.read(), *args)


def cmd_fit(args) -> int:
    cfg = parse_config(args.config, args.set or ())
    os.makedirs(cfg.output_dir, exist_ok=True)
    datasets = []
    skipped = []
    q = cfg.prior.q
    stations = load_stations(*cfg.station_paths)
    for gpath in cfg.grid_paths:
        grid = load_grid(gpath)
        try:
            ds = pair_and_threshold(stations, grid, cfg.threshold_u)
        except EmptyDataset as exc:
            log.warning("skipping event %s: %s", grid.event, exc)
            skipped.append(grid.event)
            continue
        if len(ds) <= q:
            log.warning("skipping event %s: only %d pairs for q=%d",
                        grid.event, len(ds), q)
            skipped.append(grid.event)
            continue
        datasets.append(ds)
    if not datasets:
        raise EmptyDataset("no event has enough pairs above the threshold")

    result = fit_model(datasets, cfg.prior, cfg.optimizer, cfg.theta0)
    log.info("%d evaluations, stopped: %s", result.search.evaluations,
             "budget" if result.search.budget_exhausted else "converged")
    log.info("%d evaluations rejected (theta out of bounds, a matrix not "
             "positive definite or a floored sigma^2)", result.search.rejected)
    artifact = args.output or os.path.join(cfg.output_dir, "fit.out")
    save_fit(result, artifact,
             header_comments=_header(result.theta, cfg.config_hash))

    events, sy2 = result.events, cfg.prior.sigmaY ** 2
    summary = os.path.join(cfg.output_dir, "fit_summary.csv")
    comments = _header(result.theta, cfg.config_hash)
    comments.append(f"log_posterior {result.log_posterior:.10g}")
    if skipped:
        comments.append("skipped_events " + ",".join(skipped))
    _write_csv(summary, comments, {
        "event": [ef.event for ef in events],
        "K": [ef.K for ef in events],
        "beta_hat": [" ".join(f"{v:.6g}" for v in ef.beta_hat) for ef in events],
        "sigma_hat": np.sqrt([ef.sigma_hat2 for ef in events]),
        "nugget_check": ["ok" if result.theta.lambda2 * ef.sigma_hat2 >= sy2
                         else "nugget_below_noise" for ef in events]})
    log.info("fit written to %s (log posterior %.6g)", artifact,
             result.log_posterior)
    return 0


def cmd_predict(args) -> int:
    if bool(args.grid) == bool(args.points):
        raise ConfigError("predict needs exactly one of --grid or --points")
    result = load_fit(args.fit, events=[args.event])
    os.makedirs(args.outdir, exist_ok=True)
    run_hash = _artifact_hash(args.fit, "predict", args.event,
                              args.grid or args.points, args.full_cov,
                              args.interval)
    comments = _header(result.theta, run_hash)
    if args.grid:
        grid = load_grid(args.grid)
        pf = predict_grid(result, args.event, grid, full_cov=args.full_cov)
        for name, gf in export_grids(pf, grid).items():
            path = os.path.join(args.outdir, f"predict_{args.event}_{name}.fg")
            save_grid(gf, path, header_comments=comments)
        log.info("grid prediction written for event %s", args.event)
    else:
        loc, x = load_points(args.points)
        pf = posterior_field(result, args.event, (loc, x),
                             full_cov=args.full_cov)
        lo, hi = pf.interval(0.95, law=args.interval)
        path = os.path.join(args.outdir, f"predict_{args.event}_points.csv")
        _write_csv(path, comments, {
            "event": [pf.event] * len(x), "s1": pf.locations[:, 0],
            "s2": pf.locations[:, 1], "x_sim": pf.intensities,
            "post_mean": pf.mean, "post_sd": pf.sd,
            "lo95": lo, "hi95": hi})
        log.info("point predictions written to %s", path)
    if args.full_cov:
        path = os.path.join(args.outdir, f"predict_{args.event}_cov.csv")
        _write_csv(path, comments,
                   {f"c{j}": col for j, col in enumerate(pf.covariance.T)})
    return 0


def cmd_validate(args) -> int:
    # each training split is refitted, so no artifact event is built
    result = read_fit(args.fit)
    cfg = parse_config(args.config, args.set or ())
    os.makedirs(cfg.output_dir, exist_ok=True)
    n_hold = cfg.validation_holdout
    q = result.prior.q
    fitted = {ds.event for ds, _, _ in result.events}
    stations = load_stations(*cfg.station_paths)
    # pair every event and check every holdout bound before writing any file
    paired = []
    for gpath in cfg.grid_paths:
        grid = load_grid(gpath)
        if grid.event not in fitted:
            log.warning("event %s not in the fit; skipped", grid.event)
            continue
        ds = pair_and_threshold(stations, grid, cfg.threshold_u)
        if n_hold < 1 or n_hold > len(ds) - (q + 1):
            raise InsufficientStations(
                f"event {grid.event}: holdout {n_hold} incompatible with "
                f"{len(ds)} stations (need 1 <= holdout <= K-q-1)")
        paired.append(ds)
    if not paired:
        raise InsufficientStations("no fitted event matched the config grids")
    summary = []
    for ds in paired:
        split_seed = cfg.seed + zlib.crc32(ds.event.encode()) % 100000
        train, hold = holdout_split(ds, n_hold, split_seed)
        ef = event_statistics(train, result.theta, result.prior)
        sub = ModelFit(theta=result.theta, events=(ef,), prior=result.prior,
                       log_posterior=ef.log_evidence)
        report = validation_report(sub, hold)
        comments = _header(result.theta, cfg.config_hash)
        comments.append(f"event {ds.event} holdout {n_hold} seed {split_seed}")

        std_path = os.path.join(cfg.output_dir,
                                f"validate_{ds.event}_standardized.csv")
        _write_csv(std_path, comments, {
            "index": range(n_hold), "std_error": report.standardized_errors})
        piv_path = os.path.join(cfg.output_dir,
                                f"validate_{ds.event}_pivoted.csv")
        _write_csv(piv_path, comments, {
            "pivot_order": range(n_hold),
            "holdout_index": report.pivot_indices,
            "error": report.pivoted_errors,
            "qq_theoretical": report.qq_pairs[:, 0],
            "qq_observed": report.qq_pairs[:, 1]})
        summary.append((ds.event, n_hold, report.df_pair[1],
                        report.mahalanobis, report.mahalanobis_raw,
                        report.mahalanobis_pvalue, rmse(hold.y, hold.x),
                        rmse(hold.y, report.mean)))
    event, n_holdout, df2, *stats = zip(*summary)
    path = os.path.join(cfg.output_dir, "validate_summary.csv")
    _write_csv(path, _header(result.theta, cfg.config_hash), {
        "event": event, "n_holdout": n_holdout, "df2": df2,
        **dict(zip(("mahalanobis", "raw_sq_sum", "p_value", "rmse_simulated",
                    "rmse_posterior"), np.array(stats)))})
    log.info("validation written to %s", path)
    return 0


def cmd_variogram(args) -> int:
    if args.bins < 3:
        raise ConfigError(f"--bins must be >= 3, got {args.bins}")
    result = load_fit(args.fit, events=[args.event])
    os.makedirs(args.outdir, exist_ok=True)
    table = semivariogram(result, args.event, args.var, args.bins,
                          seed=args.seed)
    run_hash = _artifact_hash(args.fit, "variogram", args.event, args.var,
                              args.bins, args.seed)
    path = os.path.join(args.outdir, f"variogram_{args.event}_{args.var}.csv")
    comments = _header(result.theta, run_hash)
    comments.append(f"fraction_inside {table.fraction_inside():.6g}")
    _write_csv(path, comments, {
        "variable": [table.binning_variable] * table.bins,
        "bin_mid": table.bin_center, "empirical": table.empirical,
        "model": table.model, "lo": table.lower95, "hi": table.upper95,
        "count": table.counts})
    log.info("variogram written to %s (%.0f%% of bins inside bounds)",
             path, 100 * table.fraction_inside())
    return 0


def cmd_simulate(args) -> int:
    if args.n < 1:
        raise ConfigError(f"-n must be >= 1, got {args.n}")
    result = load_fit(args.fit, events=[args.event])
    os.makedirs(args.outdir, exist_ok=True)
    loc, x = load_points(args.points)
    pf = posterior_field(result, args.event, (loc, x), full_cov=True)
    draws = sample_field(pf, args.n, args.seed)
    run_hash = _artifact_hash(args.fit, "simulate", args.event, args.points,
                              args.n, args.seed)
    comments = _header(result.theta, run_hash)
    comments.append(f"seed {args.seed} n {args.n}")
    path = os.path.join(args.outdir, f"simulate_{args.event}.csv")
    _write_csv(path, comments, {
        "s1": pf.locations[:, 0], "s2": pf.locations[:, 1],
        "x_sim": pf.intensities, "post_mean": pf.mean,
        **{f"real_{k + 1}": draw for k, draw in enumerate(draws)}})
    log.info("%d realization(s) written to %s", args.n, path)
    return 0


def _parse_set(pairs):
    out = {}
    for item in pairs:
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, _, val = item.partition("=")
        out[key.strip()] = val.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fieldcal",
        description="Fuse station measurements with simulated fields into "
                    "posterior actual-field estimates.")
    parser.add_argument("--version", action="version",
                        version=f"fieldcal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit hyperparameters and write an artifact")
    p_fit.add_argument("-c", "--config", required=True)
    p_fit.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_fit.add_argument("-o", "--output", help="artifact path (default <output_dir>/fit.out)")
    p_fit.set_defaults(func=cmd_fit)

    p_pred = sub.add_parser("predict", help="posterior field at a grid or points")
    p_pred.add_argument("-f", "--fit", required=True)
    p_pred.add_argument("-e", "--event", required=True)
    p_pred.add_argument("--grid")
    p_pred.add_argument("--points")
    p_pred.add_argument("--full-cov", action="store_true", dest="full_cov")
    p_pred.add_argument("--interval", choices=("gauss", "t", "auto"),
                        default="auto")
    p_pred.add_argument("-o", "--outdir", default=".")
    p_pred.set_defaults(func=cmd_predict)

    p_val = sub.add_parser("validate", help="held-out diagnostics per event")
    p_val.add_argument("-f", "--fit", required=True)
    p_val.add_argument("-c", "--config", required=True)
    p_val.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_val.set_defaults(func=cmd_validate)

    p_var = sub.add_parser("variogram", help="binned semivariogram plot data")
    p_var.add_argument("-f", "--fit", required=True)
    p_var.add_argument("-e", "--event", required=True)
    p_var.add_argument("--var", choices=("h1", "h2", "delta_intensity"),
                       default="h1")
    p_var.add_argument("--bins", type=int, default=15)
    p_var.add_argument("--seed", type=int, default=0)
    p_var.add_argument("-o", "--outdir", default=".")
    p_var.set_defaults(func=cmd_variogram)

    p_sim = sub.add_parser("simulate", help="conditional field realizations")
    p_sim.add_argument("-f", "--fit", required=True)
    p_sim.add_argument("-e", "--event", required=True)
    p_sim.add_argument("--points", required=True)
    p_sim.add_argument("-n", type=int, default=100)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("-o", "--outdir", default=".")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _setup_logging():
    level_name = os.environ.get("FIELDCAL_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    if level_name not in levels:
        print(f"fieldcal: unknown FIELDCAL_LOG level {level_name!r}",
              file=sys.stderr)
        level_name = "info"
    logging.basicConfig(level=levels[level_name],
                        format="%(levelname)s %(name)s: %(message)s",
                        stream=sys.stderr)


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "set" in args and args.set:
            args.set = _parse_set(args.set)
        return args.func(args)
    except USER_ERRORS as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return 2
    except Exception:
        log.exception("internal error")
        return 1


if __name__ == "__main__":
    sys.exit(main())
