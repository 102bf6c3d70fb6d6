"""End-to-end command-line tests on a small synthetic corpus.

Every test drives ``cli.main`` with argv lists and asserts on exit
codes and the files left behind, exactly as a shell user would see
them. One fit is shared per module; reruns check byte determinism.
"""

import csv
import logging
import os
import re
import warnings
import zlib

import numpy as np
import pytest

from fieldcal import cli
from fieldcal.dataio import (GridField, holdout_split, load_grid, load_points,
                             load_stations, pair_and_threshold, rmse,
                             save_grid)
from fieldcal.diagnostics import semivariogram, validation_report
from fieldcal.inference import ModelFit, event_statistics, load_fit
from fieldcal.prediction import posterior_field, sample_field

from _oracles import (csv_text_reference, fit_summary_rows_reference,
                      g6_rows_reference, points_csv_rows_reference,
                      validate_rows_reference, variogram_csv_rows_reference)
from _synth import make_corpus, synth_event, write_corpus

# raised intercept keeps every synthetic gust positive so the station
# CSV round-trips through the loader's nonnegativity check
CLI_BETA = (8.0, 0.9, 0.01)
CLI_SEED = 5150


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus = make_corpus(n_events=2, n_stations=45, seed=CLI_SEED,
                         beta=CLI_BETA)
    station_path, grid_paths = write_corpus(str(root), corpus)

    config = root / "run.cfg"
    config.write_text(
        "# synthetic two-event run\n"
        f"stations = {station_path}\n"
        f"grids = {','.join(grid_paths)}\n"
        "threshold = 15\n"
        "holdout = 10\n"
        "max_evals = 150\n"
        "simplex_tolerance = 1e-3\n"
        "theta0 = 0.25,0.3,4,3,1.2,0.9,8\n"
        f"output_dir = {root}\n",
        encoding="utf-8")

    points = root / "targets.csv"
    ds = corpus[0][1]
    lines = ["s1,s2,x"]
    for i in range(8):
        lines.append(f"{ds.locations[i, 0]:.6g},{ds.locations[i, 1]:.6g},"
                     f"{ds.x[i]:.6g}")
    points.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return root


@pytest.fixture(scope="module")
def fitted(corpus_dir):
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg")])
    assert rc == 0
    return corpus_dir / "fit.out"


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _csv_rows(path):
    """The header and rows of a fieldcal CSV through ``csv.reader``."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(l for l in fh if not l.startswith("#")))


def _matches_reference(path, header, rows):
    """Whether a CSV file is the text the parent's row formatters gave."""
    text = path.read_text(encoding="utf-8")
    comments = [l[2:] for l in text.splitlines() if l.startswith("# ")]
    return text == csv_text_reference(comments, header, rows)


def test_fit_writes_artifact_and_summary(corpus_dir, fitted):
    body = _read(fitted).decode()
    assert body.startswith("# fieldcal ")
    assert "# config " in body and "# theta " in body
    result = load_fit(fitted)
    assert np.isfinite(result.log_posterior)
    assert sorted(ef.event for ef in result.events) == ["ev00", "ev01"]

    summary = (corpus_dir / "fit_summary.csv").read_text().splitlines()
    header = [l for l in summary if not l.startswith("#")][0]
    assert header.split(",")[:2] == ["event", "K"]
    assert sum(1 for l in summary if l.startswith("ev0")) == 2


def test_fit_rerun_is_byte_identical(corpus_dir, fitted):
    first = _read(fitted)
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg")])
    assert rc == 0
    assert _read(fitted) == first


def test_fit_logs_evaluations_and_stop_reason(corpus_dir, tmp_path, caplog):
    caplog.set_level(logging.INFO, logger="fieldcal")
    for max_evals, reason in (("12", "budget"), ("2000", "converged")):
        caplog.clear()
        rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                       "--set", f"max_evals={max_evals}",
                       "--set", f"output_dir={tmp_path}"])
        assert rc == 0
        lines = [r.getMessage() for r in caplog.records
                 if "evaluations, stopped" in r.getMessage()]
        assert len(lines) == 1
        n, rest = lines[0].split(" evaluations, stopped: ")
        assert rest == reason
        assert 0 < int(n) <= int(max_evals)
    assert int(n) < 2000


def test_threshold_excluding_everything_is_a_user_error(corpus_dir):
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                   "--set", "threshold=1000"])
    assert rc == 2


def test_path_lists_read_as_one_csv_row(tmp_path):
    def paths(text):
        config = tmp_path / "paths.cfg"
        config.write_text(f"stations = {text}\ngrids = {text}\n",
                          encoding="utf-8")
        cfg = cli.parse_config(config)
        assert cfg.station_paths == cfg.grid_paths
        return cfg.grid_paths

    # unquoted, every comma separates, and spaces and inner quotes stay
    for text in ("a.fg", "a.fg,b.fg", "a.fg, b.fg ,c.fg", 'x"y.fg,z.fg',
                 "a.fg,,b.fg"):
        assert paths(text) == tuple(text.split(","))
    assert paths('g1.fg,"dir,2/g2.fg","g""3"".fg"') == (
        "g1.fg", "dir,2/g2.fg", 'g"3".fg')


def test_config_errors_exit_2(corpus_dir, tmp_path, caplog):
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                   "--set", "bogus_key=1"])
    assert rc == 2
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                   "--set", "no_equals_sign"])
    assert rc == 2
    # a cubic basis is unsupported: a config error, not an internal one
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                   "--set", "basis_degree=3", "--set", "prior_b=0,1,0,0",
                   "--set", "prior_B_diag=1,1,1,1"])
    assert rc == 2

    dup = tmp_path / "dup.cfg"
    dup.write_text("stations = a\nstations = b\ngrids = c\n")
    assert cli.main(["fit", "-c", str(dup)]) == 2

    missing = tmp_path / "norequired.cfg"
    missing.write_text("threshold = 15\n")
    assert cli.main(["fit", "-c", str(missing)]) == 2

    assert cli.main(["fit", "-c", str(tmp_path / "absent.cfg")]) == 2

    # a non-finite prior or threshold setting is named as a config error,
    # before any fit runs or output is written
    out = tmp_path / "fit_bad.out"
    for setting, name in (
            ("prior_b=0,nan,0", "prior b"), ("prior_B_diag=0.1,inf,1", "prior B"),
            ("prior_B_diag=0.1,nan,1", "prior B"), ("a=nan", "prior a"),
            ("a=inf", "prior a"), ("d=nan", "prior d"),
            ("sigma_y=inf", "prior sigmaY"), ("threshold=nan", "threshold"),
            ("threshold=inf", "threshold"),
            ("simplex_tolerance=inf", "simplex_tolerance")):
        caplog.clear()
        rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                       "--set", setting, "-o", str(out)])
        assert rc == 2, setting
        assert f"ConfigError: {name} must be finite" in caplog.text, setting
        assert not out.exists()


def test_duplicate_station_across_files_is_a_user_error(corpus_dir, tmp_path,
                                                        caplog):
    # the same (event, station) key in two files passed to fit
    rows = (corpus_dir / "stations.csv").read_text().splitlines()
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text("\n".join(rows[:4]) + "\n")
    second.write_text("\n".join([rows[0], rows[3]] + rows[4:]) + "\n")
    with caplog.at_level(logging.ERROR, logger="fieldcal"):
        rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                       "--set", f"stations={first},{second}",
                       "--set", f"output_dir={tmp_path}"])
    assert rc == 2
    key = tuple(rows[3].split(",")[:2])
    assert f"DuplicateStation: duplicate station key {key} across station files" \
        in caplog.text
    assert not (tmp_path / "fit.out").exists()


def test_non_finite_theta0_is_a_config_error(corpus_dir, tmp_path, caplog):
    out = tmp_path / "fit_nan.out"
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"),
                   "--set", "theta0=0,nan,5,5,1.5,1.5,5", "-o", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "ConfigError" in caplog.text
    assert "internal error" not in caplog.text
    assert all(r.exc_info is None for r in caplog.records)


def test_predict_grid_writes_five_fields(corpus_dir, fitted, tmp_path):
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "--grid", str(corpus_dir / "grid_ev00.fg"),
                   "-o", str(tmp_path)])
    assert rc == 0
    for name in ("mean", "sd", "diff", "ratio", "extrapolated"):
        gf = load_grid(tmp_path / f"predict_ev00_{name}.fg")
        assert gf.values.shape == (40, 40)
    sd = load_grid(tmp_path / "predict_ev00_sd.fg")
    assert np.all(sd.values > 0)
    mean = load_grid(tmp_path / "predict_ev00_mean.fg")
    diff = load_grid(tmp_path / "predict_ev00_diff.fg")
    sim = load_grid(corpus_dir / "grid_ev00.fg")
    assert np.allclose(diff.values, mean.values - sim.values, atol=1e-4)


def test_predict_grid_outputs_reload_with_zero_cell(corpus_dir, fitted,
                                                   tmp_path):
    # a zero simulated value is legal; its undefined ratio must come back
    # as a missing cell rather than an unreadable infinity
    sim = load_grid(corpus_dir / "grid_ev00.fg")
    values = sim.values.copy()
    values[3, 4] = 0.0
    values[5, 6] = np.nan
    grid_path = tmp_path / "zero.fg"
    save_grid(GridField(event="ev00", n1=sim.n1, n2=sim.n2,
                        origin=sim.origin, spacing=sim.spacing,
                        values=values), grid_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                       "--grid", str(grid_path), "-o", str(tmp_path)])
    assert rc == 0
    out = {name: load_grid(tmp_path / f"predict_ev00_{name}.fg").values
           for name in ("mean", "sd", "diff", "ratio", "extrapolated")}
    for name, got in out.items():
        assert np.isnan(got[5, 6]), name
        assert np.isfinite(got[3, 4]) == (name != "ratio"), name
    live = np.isfinite(values) & (values != 0.0)
    assert np.all(np.isfinite(out["ratio"][live]))
    np.testing.assert_allclose(out["ratio"][live],
                               out["mean"][live] / values[live], rtol=1e-4)


def _interval_widths(path):
    rows = [l for l in open(path, encoding="utf-8")
            if l.strip() and not l.startswith("#")]
    header = rows[0].strip().split(",")
    lo, hi = header.index("lo95"), header.index("hi95")
    return np.array([float(r.split(",")[hi]) - float(r.split(",")[lo])
                     for r in rows[1:]])


def test_predict_points_interval_laws(corpus_dir, fitted, tmp_path):
    out_g, out_t = tmp_path / "g", tmp_path / "t"
    for law, outdir in (("gauss", out_g), ("t", out_t)):
        rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                       "--points", str(corpus_dir / "targets.csv"),
                       "--interval", law, "-o", str(outdir)])
        assert rc == 0
    wg = _interval_widths(out_g / "predict_ev00_points.csv")
    wt = _interval_widths(out_t / "predict_ev00_points.csv")
    assert len(wg) == 8
    assert np.all(wt > wg)


def _g6_rows_per_row(table):
    fmt = ",".join(["%.6g"] * table.shape[1])
    return [(fmt % tuple(row),) for row in table.tolist()]


def test_predict_full_cov_writes_matrix(corpus_dir, fitted, tmp_path):
    points = corpus_dir / "targets.csv"
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "--points", str(points), "--full-cov", "-o", str(tmp_path)])
    assert rc == 0
    rows = [l for l in open(tmp_path / "predict_ev00_cov.csv")
            if l.strip() and not l.startswith("#")]
    assert len(rows) == 1 + 8   # header plus one row per target
    # the per-row text of the posterior covariance, read back symmetric
    body = [l.rstrip("\n") for l in rows[1:]]
    pf = posterior_field(load_fit(str(fitted)), "ev00", load_points(str(points)),
                         full_cov=True)
    assert [(row,) for row in body] == _g6_rows_per_row(pf.covariance)
    cov = np.array([[float(v) for v in row.split(",")] for row in body])
    assert np.array_equal(cov, cov.T)


def test_write_csv_matches_the_per_row_format(tmp_path):
    rng = np.random.default_rng(17)
    table = rng.standard_normal((6, 5)) * 10.0 ** rng.integers(-8, 8, (6, 5))
    table[0] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    table[1, :2] = [1e300, -1e300]
    header = [f"c{j}" for j in range(5)]
    path = tmp_path / "t.csv"
    for rows in (table, table[:1], table[:0]):
        cli._write_csv(path, ["a 100% comment"], dict(zip(header, rows.T)))
        assert _matches_reference(path, header, g6_rows_reference(rows))
        assert _matches_reference(path, header, _g6_rows_per_row(rows))
        if len(rows) == len(table):
            assert path.read_text().splitlines()[2] == \
                "nan,inf,-inf,-0,4.94066e-324"
    # an empty table is its comments and header
    assert path.read_text() == "# a 100% comment\nc0,c1,c2,c3,c4\n"
    assert not (tmp_path / "t.csv.tmp").exists()


def test_points_csv_columns(corpus_dir, fitted, tmp_path):
    points = corpus_dir / "targets.csv"
    assert cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                     "--points", str(points), "--full-cov",
                     "--interval", "gauss", "-o", str(tmp_path)]) == 0
    header, *rows = _csv_rows(tmp_path / "predict_ev00_points.csv")
    assert header == ["event", "s1", "s2", "x_sim", "post_mean", "post_sd",
                      "lo95", "hi95"]
    assert len(rows) == 8
    assert rows[0][0] == "ev00"
    loc, x = load_points(points)
    assert float(rows[0][3]) == x[0]
    pf = posterior_field(load_fit(fitted), "ev00", (loc, x), full_cov=True)
    lo, hi = pf.interval(0.95, law="gauss")
    assert float(rows[1][6]) == pytest.approx(lo[1], rel=1e-5)
    assert float(rows[1][7]) == pytest.approx(hi[1], rel=1e-5)
    assert _matches_reference(tmp_path / "predict_ev00_points.csv",
                              *points_csv_rows_reference(pf, law="gauss"))
    assert _matches_reference(tmp_path / "predict_ev00_cov.csv",
                              [f"c{j}" for j in range(8)],
                              g6_rows_reference(pf.covariance))


def test_variogram_csv_columns(corpus_dir, fitted, tmp_path):
    assert cli.main(["variogram", "-f", str(fitted), "-e", "ev00",
                     "--var", "delta_intensity", "--bins", "4", "--seed", "3",
                     "-o", str(tmp_path)]) == 0
    path = tmp_path / "variogram_ev00_delta_intensity.csv"
    header, *rows = _csv_rows(path)
    assert header == ["variable", "bin_mid", "empirical", "model", "lo",
                      "hi", "count"]
    assert len(rows) == 4
    assert rows[0][0] == "delta_intensity"
    result = load_fit(fitted)
    k = result.event("ev00").K
    assert sum(int(r[6]) for r in rows) == k * (k - 1) // 2
    table = semivariogram(result, "ev00", "delta_intensity", 4, seed=3)
    assert float(rows[2][1]) == pytest.approx(table.bin_center[2], rel=1e-5)
    assert _matches_reference(path, *variogram_csv_rows_reference(table))


def test_csv_bodies_match_the_row_formatters(corpus_dir, fitted, tmp_path):
    # fit_summary, simulate and validate against the per-row formatting
    # the commands did before one writer took every table as columns
    result = load_fit(fitted)
    cfg = cli.parse_config(corpus_dir / "run.cfg")
    assert _matches_reference(corpus_dir / "fit_summary.csv",
                              *fit_summary_rows_reference(result,
                                                          cfg.prior.sigmaY))

    points = corpus_dir / "targets.csv"
    assert cli.main(["simulate", "-f", str(fitted), "-e", "ev00",
                     "--points", str(points), "-n", "3", "--seed", "11",
                     "-o", str(tmp_path)]) == 0
    pf = posterior_field(result, "ev00", load_points(points), full_cov=True)
    table = np.column_stack([pf.locations, pf.intensities, pf.mean,
                             sample_field(pf, 3, 11).T])
    assert _matches_reference(
        tmp_path / "simulate_ev00.csv",
        ["s1", "s2", "x_sim", "post_mean", "real_1", "real_2", "real_3"],
        g6_rows_reference(table))

    assert cli.main(["validate", "-f", str(fitted),
                     "-c", str(corpus_dir / "run.cfg"),
                     "--set", f"output_dir={tmp_path}"]) == 0
    stations = load_stations(corpus_dir / "stations.csv")
    n_hold, summary = cfg.validation_holdout, []
    for ev in ("ev00", "ev01"):
        ds = pair_and_threshold(stations, load_grid(corpus_dir / f"grid_{ev}.fg"),
                                cfg.threshold_u)
        train, hold = holdout_split(ds, n_hold,
                                    cfg.seed + zlib.crc32(ev.encode()) % 100000)
        ef = event_statistics(train, result.theta, result.prior)
        report = validation_report(
            ModelFit(theta=result.theta, events=(ef,), prior=result.prior,
                     log_posterior=ef.log_evidence), hold)
        std, piv, row = validate_rows_reference(ev, n_hold, hold, report)
        assert _matches_reference(tmp_path / f"validate_{ev}_standardized.csv",
                                  ["index", "std_error"], std)
        assert _matches_reference(tmp_path / f"validate_{ev}_pivoted.csv",
                                  ["pivot_order", "holdout_index", "error",
                                   "qq_theoretical", "qq_observed"], piv)
        summary.append(row)
    assert _matches_reference(tmp_path / "validate_summary.csv",
                              ["event", "n_holdout", "df2", "mahalanobis",
                               "raw_sq_sum", "p_value", "rmse_simulated",
                               "rmse_posterior"], summary)


def test_predict_grid_full_cov_over_limit_is_user_error(corpus_dir, fitted,
                                                      tmp_path, caplog):
    # 71 x 71 = 5041 cells, above the 5000-target full-covariance limit
    sim = load_grid(corpus_dir / "grid_ev00.fg")
    grid_path = tmp_path / "big.fg"
    save_grid(GridField(event="ev00", n1=71, n2=71, origin=sim.origin,
                        spacing=(sim.spacing[0] * 0.55, sim.spacing[1] * 0.55),
                        values=np.full((71, 71), 20.0)), grid_path)
    out = tmp_path / "out"
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "--grid", str(grid_path), "--full-cov", "-o", str(out)])
    assert rc == 2
    assert not out.exists() or os.listdir(out) == []
    assert "limited to 5000 targets; 5041 targets ask for a 5041 x 5041" \
        in caplog.text


def test_predict_needs_exactly_one_target(corpus_dir, fitted, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "-o", str(out)])
    assert rc == 2
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "--grid", str(corpus_dir / "grid_ev00.fg"),
                   "--points", str(corpus_dir / "targets.csv"),
                   "-o", str(out)])
    assert rc == 2
    # an empty path names no target either
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00", "--grid", "",
                   "-o", str(out)])
    assert rc == 2
    assert not out.exists()


def test_malformed_grid_header_is_user_error(corpus_dir, fitted, tmp_path,
                                             caplog):
    grid_path = tmp_path / "flat.fg"
    grid_path.write_text(re.sub(r"(?m)^spacing .*$", "spacing 0 1",
                                (corpus_dir / "grid_ev00.fg").read_text()))
    rc = cli.main(["predict", "-f", str(fitted), "-e", "ev00",
                   "--grid", str(grid_path), "-o", str(tmp_path)])
    assert rc == 2
    assert "HeaderMismatch" in caplog.text
    assert "internal error" not in caplog.text


def test_non_finite_points_are_user_errors(fitted, tmp_path, caplog):
    points = tmp_path / "nan.csv"
    points.write_text("s1,s2,x\n1,2,20\n1,nan,20\n")
    for cmd in ("predict", "simulate"):
        rc = cli.main([cmd, "-f", str(fitted), "-e", "ev00",
                       "--points", str(points), "-o", str(tmp_path)])
        assert rc == 2
    assert not (tmp_path / "predict_ev00_points.csv").exists()
    assert not (tmp_path / "simulate_ev00.csv").exists()
    assert "line 3: non-finite value" in caplog.text
    assert "internal error" not in caplog.text


def test_predict_unknown_event(corpus_dir, fitted, tmp_path):
    rc = cli.main(["predict", "-f", str(fitted), "-e", "nosuch",
                   "--points", str(corpus_dir / "targets.csv"),
                   "-o", str(tmp_path)])
    assert rc == 2


def test_event_id_with_inner_whitespace_round_trips(tmp_path):
    # the second id is quoted in the station file, and written quoted
    events = ["storm  one", 'storm, "A"']
    rng = np.random.default_rng(CLI_SEED)
    corpus = [synth_event(ev, rng, 45, CLI_BETA) for ev in events]
    station_path, grid_paths = write_corpus(str(tmp_path), corpus)
    # the second grid's path holds a comma and double quotes, so the
    # config's comma-separated list names it quoted
    assert grid_paths[1] == str(tmp_path / 'grid_storm, "A".fg')
    quoted = '"' + grid_paths[1].replace('"', '""') + '"'
    config = tmp_path / "run.cfg"
    config.write_text(f"stations = {station_path}\ngrids = {grid_paths[0]},{quoted}\n"
                      "holdout = 10\nmax_evals = 40\nsimplex_tolerance = 1e-3\n"
                      "theta0 = 0.25,0.3,4,3,1.2,0.9,8\n"
                      f"output_dir = {tmp_path}\n", encoding="utf-8")
    assert cli.main(["fit", "-c", str(config)]) == 0
    fit_path = tmp_path / "fit.out"
    assert [ef.event for ef in load_fit(fit_path).events] == events
    points = tmp_path / "targets.csv"
    points.write_text("s1,s2,x\n5,5,25\n6,7,30\n", encoding="utf-8")
    outputs = [tmp_path / "fit_summary.csv", tmp_path / "validate_summary.csv"]
    for event in events:
        assert cli.main(["predict", "-f", str(fit_path), "-e", event,
                         "--points", str(points), "-o", str(tmp_path)]) == 0
        outputs.append(tmp_path / f"predict_{event}_points.csv")
    assert cli.main(["validate", "-f", str(fit_path), "-c", str(config)]) == 0
    for path in outputs:
        header, *rows = _csv_rows(path)
        assert rows and all(len(row) == len(header) for row in rows), path
        assert {row[0] for row in rows} <= set(events)
    summary = _csv_rows(tmp_path / "validate_summary.csv")[1:]
    assert [row[0] for row in summary] == events


def test_validate_outputs_and_seeded_split(corpus_dir, fitted):
    rc = cli.main(["validate", "-f", str(fitted),
                   "-c", str(corpus_dir / "run.cfg")])
    assert rc == 0
    for ev in ("ev00", "ev01"):
        assert (corpus_dir / f"validate_{ev}_standardized.csv").exists()
        assert (corpus_dir / f"validate_{ev}_pivoted.csv").exists()
    summary = (corpus_dir / "validate_summary.csv").read_text().splitlines()
    data = [l for l in summary if l.startswith("ev0")]
    assert len(data) == 2
    header = [l for l in summary if not l.startswith("#")][0].split(",")
    p_col = header.index("p_value")
    for line in data:
        p = float(line.split(",")[p_col])
        assert 0.0 < p <= 1.0

    before = _read(corpus_dir / "validate_ev00_standardized.csv")
    assert cli.main(["validate", "-f", str(fitted),
                     "-c", str(corpus_dir / "run.cfg")]) == 0
    assert _read(corpus_dir / "validate_ev00_standardized.csv") == before


def test_validate_overridden_holdout_shows_in_summary(corpus_dir, fitted):
    rc = cli.main(["validate", "-f", str(fitted),
                   "-c", str(corpus_dir / "run.cfg"), "--set", "holdout=7"])
    assert rc == 0
    summary = (corpus_dir / "validate_summary.csv").read_text().splitlines()
    data = [l.split(",") for l in summary if l.startswith("ev0")]
    assert all(row[1] == "7" for row in data)


def test_validate_holdout_bounds(corpus_dir, fitted):
    assert cli.main(["validate", "-f", str(fitted),
                     "-c", str(corpus_dir / "run.cfg"),
                     "--set", "holdout=0"]) == 2
    assert cli.main(["validate", "-f", str(fitted),
                     "-c", str(corpus_dir / "run.cfg"),
                     "--set", "holdout=45"]) == 2


def test_validate_checks_every_event_before_writing(corpus_dir, fitted,
                                                    tmp_path, caplog):
    # the event listed second fails its holdout bound: nothing is written
    stations = load_stations(corpus_dir / "stations.csv")
    grids = sorted((corpus_dir / f"grid_{ev}.fg" for ev in ("ev00", "ev01")),
                   key=lambda g: -len(pair_and_threshold(
                       stations, load_grid(g), 25.0)))
    k_first, k_second = (len(pair_and_threshold(stations, load_grid(g), 25.0))
                         for g in grids)
    q = 3
    assert k_second < k_first
    holdout = k_second - q   # > K - q - 1 for the second event only
    rc = cli.main(["validate", "-f", str(fitted),
                   "-c", str(corpus_dir / "run.cfg"),
                   "--set", f"grids={grids[0]},{grids[1]}",
                   "--set", "threshold=25", "--set", f"holdout={holdout}",
                   "--set", f"output_dir={tmp_path}"])
    assert rc == 2
    assert "InsufficientStations" in caplog.text
    assert not [p for p in os.listdir(tmp_path) if p.startswith("validate_")]


def test_validate_summary_rmse_posterior(corpus_dir, fitted, tmp_path):
    # the column is the posterior mean's RMSE at the held-out stations,
    # recomputed here from the same seeded split
    rc = cli.main(["validate", "-f", str(fitted),
                   "-c", str(corpus_dir / "run.cfg"),
                   "--set", f"output_dir={tmp_path}"])
    assert rc == 0
    cfg = cli.parse_config(corpus_dir / "run.cfg")
    result = load_fit(fitted)
    stations = load_stations(corpus_dir / "stations.csv")
    lines = (tmp_path / "validate_summary.csv").read_text().splitlines()
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    rows = {r[0]: r for r in (l.split(",") for l in lines
                              if l.startswith("ev0"))}
    assert sorted(rows) == ["ev00", "ev01"]
    for ev, row in rows.items():
        ds = pair_and_threshold(stations, load_grid(corpus_dir / f"grid_{ev}.fg"),
                                cfg.threshold_u)
        seed = cfg.seed + zlib.crc32(ev.encode()) % 100000
        train, hold = holdout_split(ds, cfg.validation_holdout, seed)
        ef = event_statistics(train, result.theta, result.prior)
        sub = ModelFit(theta=result.theta, events=(ef,), prior=result.prior,
                       log_posterior=0.0)
        mean = posterior_field(sub, ev, (hold.locations, hold.x)).mean
        assert row[header.index("rmse_posterior")] == f"{rmse(hold.y, mean):.6g}"
        assert row[header.index("rmse_simulated")] == f"{rmse(hold.y, hold.x):.6g}"


def test_validate_single_holdout(corpus_dir, fitted, tmp_path):
    rc = cli.main(["validate", "-f", str(fitted),
                   "-c", str(corpus_dir / "run.cfg"),
                   "--set", "holdout=1", "--set", f"output_dir={tmp_path}"])
    assert rc == 0
    summary = (tmp_path / "validate_summary.csv").read_text().splitlines()
    data = [l.split(",") for l in summary if l.startswith("ev0")]
    assert len(data) == 2 and all(row[1] == "1" for row in data)
    for ev in ("ev00", "ev01"):
        lines = (tmp_path / f"validate_{ev}_pivoted.csv").read_text()
        rows = [l for l in lines.splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 1


def test_simulate_sample_count_is_a_config_error(corpus_dir, fitted,
                                                 tmp_path, caplog):
    for n in ("0", "-3"):
        rc = cli.main(["simulate", "-f", str(fitted), "-e", "ev00",
                       "--points", str(corpus_dir / "targets.csv"),
                       "-n", n, "-o", str(tmp_path)])
        assert rc == 2
    assert not (tmp_path / "simulate_ev00.csv").exists()
    assert "ConfigError" in caplog.text
    assert "internal error" not in caplog.text


def test_variogram_bin_count_is_a_config_error(corpus_dir, fitted, tmp_path,
                                              caplog):
    rc = cli.main(["variogram", "-f", str(fitted), "-e", "ev00",
                   "--bins", "2", "-o", str(tmp_path)])
    assert rc == 2
    assert not (tmp_path / "variogram_ev00_h1.csv").exists()
    assert "ConfigError" in caplog.text
    assert "internal error" not in caplog.text


def test_smoothness_above_100_is_a_user_error(corpus_dir, fitted, tmp_path,
                                              caplog, capsys):
    # the kernel is not trusted past nu = 100 (at 172 Gamma(nu) overflows)
    lines = _read(fitted).decode().splitlines(keepends=True)
    row = next(i for i, l in enumerate(lines) if l.startswith("theta "))
    theta = lines[row].split()
    theta[5] = "200"
    lines[row] = " ".join(theta) + "\n"
    bad = tmp_path / "nu200.out"
    bad.write_text("".join(lines))
    rc = cli.main(["variogram", "-f", str(bad), "-e", "ev00",
                   "-o", str(tmp_path)])
    assert rc == 2
    assert "ArtifactError" in caplog.text and "nu1 must be <= 100" in caplog.text
    caplog.clear()
    rc = cli.main(["fit", "-c", str(corpus_dir / "run.cfg"), "--set",
                   "theta0=0,0.1,1,1,1,200,1", "-o", str(tmp_path / "f.out")])
    assert rc == 2
    assert "ConfigError: nu2 must be <= 100" in caplog.text
    assert "internal error" not in caplog.text
    assert "Traceback" not in caplog.text + "".join(capsys.readouterr())
    assert not (tmp_path / "variogram_ev00_h1.csv").exists()


def test_variogram_deterministic_output(corpus_dir, fitted, tmp_path):
    argv = ["variogram", "-f", str(fitted), "-e", "ev00", "--var", "h1",
            "--bins", "5", "--seed", "3", "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    path = tmp_path / "variogram_ev00_h1.csv"
    text = path.read_text()
    assert "# fraction_inside " in text
    data = [l for l in text.splitlines()
            if l.strip() and not l.startswith("#")]
    assert len(data) == 1 + 5
    first = _read(path)
    assert cli.main(argv) == 0
    assert _read(path) == first


def test_simulate_seeded_realizations(corpus_dir, fitted, tmp_path):
    argv = ["simulate", "-f", str(fitted), "-e", "ev00",
            "--points", str(corpus_dir / "targets.csv"),
            "-n", "3", "--seed", "11", "-o", str(tmp_path)]
    assert cli.main(argv) == 0
    path = tmp_path / "simulate_ev00.csv"
    lines = [l for l in path.read_text().splitlines()
             if l.strip() and not l.startswith("#")]
    assert lines[0].split(",") == ["s1", "s2", "x_sim", "post_mean",
                                   "real_1", "real_2", "real_3"]
    assert len(lines) == 1 + 8
    first = _read(path)
    assert cli.main(argv) == 0
    assert _read(path) == first

    argv[argv.index("11")] = "12"
    assert cli.main(argv) == 0
    assert _read(path) != first


def test_simulated_points_load_back(corpus_dir, fitted, tmp_path):
    assert cli.main(["simulate", "-f", str(fitted), "-e", "ev00",
                     "--points", str(corpus_dir / "targets.csv"),
                     "-n", "1", "--seed", "0", "-o", str(tmp_path)]) == 0
    loc, x = load_points(corpus_dir / "targets.csv")
    lines = [l for l in (tmp_path / "simulate_ev00.csv").read_text().splitlines()
             if l.strip() and not l.startswith("#")][1:]
    got = np.array([[float(v) for v in l.split(",")[:3]] for l in lines])
    assert np.allclose(got[:, :2], loc, atol=1e-4)
    assert np.allclose(got[:, 2], x, atol=1e-4)


def test_missing_fit_file_is_user_error(corpus_dir, tmp_path):
    rc = cli.main(["predict", "-f", str(tmp_path / "absent.out"),
                   "-e", "ev00", "--points", str(corpus_dir / "targets.csv"),
                   "-o", str(tmp_path)])
    assert rc == 2


def test_corrupt_artifact_is_user_error(corpus_dir, fitted, tmp_path):
    bad = tmp_path / "bad.out"
    bad.write_bytes(_read(fitted)[:200])
    rc = cli.main(["predict", "-f", str(bad), "-e", "ev00",
                   "--points", str(corpus_dir / "targets.csv"),
                   "-o", str(tmp_path)])
    assert rc == 2


def test_non_finite_artifact_data_is_a_user_error(corpus_dir, fitted,
                                                 tmp_path, caplog):
    # an infinite coordinate in a stored data row names its column
    lines = _read(fitted).decode().splitlines(keepends=True)
    row = next(i for i, l in enumerate(lines) if l.startswith("sigma2 ")) + 1
    values = lines[row].split()
    values[1] = "inf"
    lines[row] = " ".join(values) + "\n"
    bad = tmp_path / "inf.out"
    bad.write_text("".join(lines))
    rc = cli.main(["predict", "-f", str(bad), "-e", "ev00",
                   "--points", str(corpus_dir / "targets.csv"),
                   "-o", str(tmp_path)])
    assert rc == 2
    assert "ArtifactError" in caplog.text
    assert "locations must be finite" in caplog.text


def test_no_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit):
        cli.main([])
