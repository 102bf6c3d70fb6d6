"""Posterior prediction and conditional simulation, checked against
brute-force joint-Gaussian conditioning."""

import tracemalloc
import warnings

import numpy as np
import pytest

from fieldcal import prediction
from fieldcal.covariance import Hyperparameters
from fieldcal.dataio import EventDataset, GridField, load_grid, save_grid
from fieldcal.inference import (
    ModelFit,
    PriorSpec,
    basis_matrix,
    event_statistics,
    log_posterior_theta,
)
from fieldcal.prediction import (
    PosteriorField,
    export_grids,
    posterior_field,
    predict_grid,
    predictive_measurements,
    sample_field,
)
from _oracles import (conditional_reference, full_covariance_reference,
                      joint_conditional_oracle)

THETA = Hyperparameters(omega=0.2, lambda2=0.4, phi1=3.0, phi2=2.0,
                        nu1=1.3, nu2=0.8, phiX=10.0)


def make_fit(rng, k=12, theta=THETA, prior=None, event="ev"):
    if prior is None:
        prior = PriorSpec(b=[0.0, 1.0, 0.0], B=np.diag([0.5, 0.5, 0.5]),
                          a=1.0, d=2.0, sigmaY=2.0)
    loc = rng.uniform(0, 12, size=(k, 2))
    x = rng.uniform(16, 40, size=k)
    y = 0.9 * x + rng.normal(0, 3, size=k)
    ds = EventDataset(event, loc, x, y, threshold=15.0)
    ef = event_statistics(ds, theta, prior)
    lp = log_posterior_theta([ds], theta, prior)
    return ModelFit(theta=theta, events=(ef,), prior=prior, log_posterior=lp)


def test_conditioning_matches_brute_force():
    rng = np.random.default_rng(71)
    for trial in range(12):
        q = int(rng.integers(1, 4))
        prior = PriorSpec(
            b=rng.normal(size=q),
            B=(lambda w: w @ w.T + 0.4 * np.eye(q))(rng.normal(size=(q, q))),
            a=float(rng.uniform(0.2, 2.0)), d=int(rng.integers(0, 4)),
            sigmaY=float(rng.uniform(0.5, 3.0)), basis_degree=q - 1)
        k = int(rng.integers(q + 2, 9))
        mf = make_fit(rng, k=k, prior=prior)
        ef = mf.events[0]
        m = int(rng.integers(1, 4))
        tloc = rng.uniform(-2, 14, size=(m, 2))
        tx = rng.uniform(16, 40, size=m)
        for measurement in (False, True):
            if measurement:
                pf = predictive_measurements(mf, "ev", (tloc, tx))
            else:
                pf = posterior_field(mf, "ev", (tloc, tx), full_cov=True)
            want_mean, want_cov = joint_conditional_oracle(
                THETA, prior, ef.dataset.locations, ef.x, ef.y, tloc, tx,
                ef.sigma_hat2, measurement)
            scale = max(np.max(np.abs(want_mean)), 1.0)
            np.testing.assert_allclose(pf.mean, want_mean,
                                       rtol=1e-8, atol=1e-8 * scale)
            np.testing.assert_allclose(pf.covariance, want_cov,
                                       rtol=1e-7, atol=1e-8)
            np.testing.assert_allclose(pf.variance, np.diag(pf.covariance),
                                       rtol=1e-12)


def test_diag_only_matches_full():
    rng = np.random.default_rng(73)
    mf = make_fit(rng)
    tloc = rng.uniform(0, 12, size=(5, 2))
    tx = rng.uniform(16, 40, size=5)
    full = posterior_field(mf, "ev", (tloc, tx), full_cov=True)
    diag = posterior_field(mf, "ev", (tloc, tx), full_cov=False)
    assert diag.covariance is None
    np.testing.assert_allclose(diag.mean, full.mean, rtol=1e-13)
    np.testing.assert_allclose(diag.variance, full.variance,
                               rtol=1e-9, atol=1e-12)


def test_measurement_adds_noise_variance_exactly():
    rng = np.random.default_rng(79)
    mf = make_fit(rng)
    tloc = rng.uniform(0, 12, size=(4, 2))
    tx = rng.uniform(16, 40, size=4)
    z = posterior_field(mf, "ev", (tloc, tx), full_cov=True)
    y = predictive_measurements(mf, "ev", (tloc, tx))
    s2 = mf.prior.sigmaY ** 2
    np.testing.assert_allclose(y.variance - z.variance, np.full(4, s2),
                               rtol=1e-10)
    np.testing.assert_allclose(y.mean, z.mean, rtol=1e-13)
    # off-diagonal covariance is untouched by independent noise
    off = ~np.eye(4, dtype=bool)
    np.testing.assert_allclose(y.covariance[off], z.covariance[off],
                               rtol=1e-9, atol=1e-12)
    assert z.space == "actual_field" and y.space == "measurement"
    assert z.df == mf.events[0].K - mf.prior.q


def test_near_interpolation_with_tiny_nugget():
    # lambda2 -> 0 makes the field honor the training data at their sites
    theta = Hyperparameters(omega=0.1, lambda2=1e-9, phi1=3.0, phi2=3.0,
                            nu1=1.5, nu2=1.5, phiX=12.0)
    rng = np.random.default_rng(83)
    mf = make_fit(rng, k=10, theta=theta)
    ds = mf.events[0].dataset
    pf = posterior_field(mf, "ev", (ds.locations, ds.x), full_cov=False)
    np.testing.assert_allclose(pf.mean, ds.y, rtol=0, atol=1e-5)
    assert np.all(pf.variance < 1e-5 * mf.events[0].sigma_hat2 + 1e-10)


def test_far_target_reverts_to_regression_mean():
    rng = np.random.default_rng(89)
    mf = make_fit(rng)
    ef = mf.events[0]
    tx = np.array([25.0])
    far = np.array([[4000.0, -3000.0]])
    pf = posterior_field(mf, "ev", (far, tx), full_cov=True)
    h = basis_matrix(tx, mf.prior.q)
    want = float((h @ ef.beta_hat)[0])
    assert pf.mean[0] == pytest.approx(want, rel=1e-12)
    # no data nearby: at least the full prior marginal variance remains
    assert pf.variance[0] >= ef.sigma_hat2 * 0.999


def test_variance_grows_away_from_data():
    rng = np.random.default_rng(97)
    mf = make_fit(rng, k=15)
    ds = mf.events[0].dataset
    at_data = posterior_field(mf, "ev", (ds.locations[:1], ds.x[:1]))
    x_far = np.array([ds.x[0]])
    far = posterior_field(mf, "ev", (np.array([[600.0, 600.0]]), x_far))
    assert far.variance[0] > at_data.variance[0]


def test_sample_field_deterministic():
    rng = np.random.default_rng(101)
    mf = make_fit(rng)
    tloc = rng.uniform(0, 12, size=(3, 2))
    tx = rng.uniform(16, 40, size=3)
    pf = posterior_field(mf, "ev", (tloc, tx), full_cov=True)
    d1 = sample_field(pf, 5, seed=9)
    d2 = sample_field(pf, 5, seed=9)
    assert isinstance(d1, np.ndarray) and d1.shape == (5, 3)
    np.testing.assert_array_equal(d1, d2)
    d3 = sample_field(pf, 5, seed=10)
    assert not np.array_equal(d1[0], d3[0])
    with pytest.raises(ValueError):
        sample_field(pf, 0, seed=1)
    diag_only = posterior_field(mf, "ev", (tloc, tx), full_cov=False)
    with pytest.raises(ValueError):
        sample_field(diag_only, 3, seed=1)


def test_sample_field_zero_covariance_returns_mean():
    pf = PosteriorField(event="e", locations=np.zeros((2, 2)),
                        intensities=np.array([20.0, 21.0]),
                        mean=np.array([1.5, -2.0]),
                        variance=np.zeros(2), covariance=np.zeros((2, 2)),
                        df=10, space="actual_field")
    draws = sample_field(pf, 4, seed=3)
    assert draws.shape == (4, 2)
    for d in draws:
        np.testing.assert_array_equal(d, pf.mean)


def test_sample_field_moments():
    rng = np.random.default_rng(103)
    mf = make_fit(rng)
    tloc = rng.uniform(2, 10, size=(3, 2))
    tx = rng.uniform(18, 35, size=3)
    pf = posterior_field(mf, "ev", (tloc, tx), full_cov=True)
    n = 60000
    draws = sample_field(pf, n, seed=5)
    se_mean = pf.sd / np.sqrt(n)
    np.testing.assert_allclose(draws.mean(axis=0), pf.mean,
                               atol=4.5 * se_mean.max())
    emp_cov = np.cov(draws.T)
    scale = np.max(np.abs(pf.covariance))
    np.testing.assert_allclose(emp_cov, pf.covariance, atol=0.05 * scale)


def test_predict_grid_matches_pointwise():
    rng = np.random.default_rng(107)
    mf = make_fit(rng)
    vals = rng.uniform(16.0, 40.0, size=(6, 5))
    vals[1, 3] = np.nan
    vals[4, 0] = 12.0  # below threshold: extrapolated but still predicted
    grid = GridField(event="ev", n1=6, n2=5, origin=(0.0, 0.0),
                     spacing=(2.0, 2.5), values=vals)
    pf = predict_grid(mf, "ev", grid)
    assert len(pf.mean) == 29  # one missing cell skipped
    centers = grid.cell_centers()
    flat = vals.ravel()
    k = 0
    for idx in range(30):
        if not np.isfinite(flat[idx]):
            continue
        single = posterior_field(
            mf, "ev", (centers[idx:idx + 1], flat[idx:idx + 1]))
        assert pf.mean[k] == pytest.approx(single.mean[0], rel=1e-12)
        assert pf.variance[k] == pytest.approx(single.variance[0],
                                               rel=1e-9, abs=1e-12)
        assert pf.cell_index[k] == idx
        assert bool(pf.extrapolated[k]) == (flat[idx] <= 15.0)
        k += 1
    assert int(pf.extrapolated.sum()) == 1


def test_blocked_prediction_matches_dense_reference(monkeypatch):
    # tolerances fixed before measuring: mean 1e-12 relative, variance
    # 1e-12 * sigma_hat2 absolute (the quadratic term is summed in a
    # different order), cell bookkeeping identical
    rng = np.random.default_rng(127)
    mf = make_fit(rng, k=20)
    ef = mf.events[0]
    vals = rng.uniform(10.0, 40.0, size=(6, 9))
    vals[0, 2] = vals[3, 3] = vals[5, 8] = np.nan
    vals[2, 2] = 15.0   # at the threshold: extrapolated
    grid = GridField(event="ev", n1=6, n2=9, origin=(-1.0, 0.5),
                     spacing=(2.5, 1.5), values=vals)
    flat = vals.ravel()
    valid = np.flatnonzero(np.isfinite(flat))
    assert len(valid) == 51 and np.sum(flat[valid] <= 15.0) >= 3

    rows = []
    block = prediction.correlation_block

    def counted(theta, loc_a, x_a, loc_b, x_b):
        rows.append(len(x_a))
        return block(theta, loc_a, x_a, loc_b, x_b)

    whole = predict_grid(mf, "ev", grid)
    monkeypatch.setattr(prediction, "correlation_block", counted)
    # the rows per block come from the kernel's lag budget, in whole
    # groups of 8: one block is at most one kernel chunk of lags
    for k, n, want in ((200, 200, [160, 40]), (12, 2731, [2728, 3])):
        big = make_fit(np.random.default_rng(k), k=k)
        posterior_field(big, "ev", (np.zeros((n, 2)), np.full(n, 20.0)))
        assert rows == want
        rows.clear()
    monkeypatch.setattr(prediction, "_CHUNK", 8 * ef.K)
    pf = predict_grid(mf, "ev", grid)
    assert rows == [8] * 6 + [3]
    # the blocking does not touch the mean, not even its last bit
    np.testing.assert_array_equal(pf.mean, whole.mean)

    want_mean, want_var = conditional_reference(
        mf, "ev", grid.cell_centers()[valid], flat[valid], add_noise=False)
    for got in (pf, whole):
        np.testing.assert_allclose(got.mean, want_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(got.variance, want_var, rtol=0,
                                   atol=1e-12 * ef.sigma_hat2)
        np.testing.assert_array_equal(got.cell_index, valid)
        np.testing.assert_array_equal(got.extrapolated, flat[valid] <= 15.0)

    # measurement space, through the point API, blocks of 8 as well
    rows.clear()
    tloc = rng.uniform(-2, 14, size=(16, 2))
    tx = rng.uniform(10, 40, size=16)
    y = predictive_measurements(mf, "ev", (tloc, tx), full_cov=False)
    assert rows == [8, 8] and y.covariance is None
    want_mean, want_var = conditional_reference(mf, "ev", tloc, tx,
                                                add_noise=True)
    np.testing.assert_allclose(y.mean, want_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(y.variance, want_var, rtol=0,
                               atol=1e-12 * ef.sigma_hat2)


def test_blocked_prediction_on_an_ill_conditioned_fit():
    # tolerances fixed before measuring: with no nugget and stations far
    # closer than the ranges, A has cond >= 1e10, and the quadratic term
    # through one GEMM against L^{-1} must still give the variance of the
    # dense triangular solves within 1e-12 * sigma_hat2; the mean within
    # 1e-12 relative
    rng = np.random.default_rng(149)
    theta = Hyperparameters(omega=0.2, lambda2=0.0, phi1=10.0, phi2=10.0,
                            nu1=2.5, nu2=2.5, phiX=40.0)
    prior = PriorSpec(b=[0.0, 1.0, 0.0], B=np.diag([0.5, 0.5, 0.5]),
                      a=1.0, d=2.0, sigmaY=2.0)
    x = rng.uniform(16, 40, size=80)
    ds = EventDataset("ev", rng.uniform(0, 4, size=(80, 2)), x,
                      0.9 * x + rng.normal(0, 3, size=80), threshold=15.0)
    ef = event_statistics(ds, theta, prior)
    mf = ModelFit(theta=theta, events=(ef,), prior=prior, log_posterior=0.0)
    lower = ef.A_factor.lower
    assert np.linalg.cond(lower @ lower.T) >= 1e10
    grid = GridField(event="ev", n1=30, n2=40, origin=(0.0, 0.0),
                     spacing=(0.15, 0.1),
                     values=rng.uniform(16, 40, size=(30, 40)))
    assert grid.values.size > 2 * (prediction._CHUNK // ef.K)  # 3 blocks
    pf = predict_grid(mf, "ev", grid)
    want_mean, want_var = conditional_reference(
        mf, "ev", grid.cell_centers(), grid.values.ravel(), add_noise=False)
    np.testing.assert_allclose(pf.mean, want_mean, rtol=1e-12, atol=0)
    np.testing.assert_allclose(pf.variance, want_var, rtol=0,
                               atol=1e-12 * ef.sigma_hat2)
    # the full covariance on the same fit, to the same bound: its entries
    # fall to about 5e-5 sigma_hat2, so the bound is on the prior's scale
    loc, x = grid.cell_centers()[:300], grid.values.ravel()[:300]
    for conditional, noise in ((posterior_field, False),
                               (predictive_measurements, True)):
        got = conditional(mf, "ev", (loc, x), full_cov=True).covariance
        want = full_covariance_reference(mf, "ev", loc, x, add_noise=noise)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * ef.sigma_hat2)


def test_full_covariance_matches_the_cross_block_construction():
    # the one-buffer SYRK construction against the cross-block GEMM one,
    # with coincident records and with a single target: within 1e-12 of
    # the covariance's scale, exactly symmetric, and the variance its
    # diagonal bit for bit
    rng = np.random.default_rng(139)
    mf = make_fit(rng, k=30)
    tloc = rng.uniform(-2, 14, size=(40, 2))
    tx = rng.uniform(10, 40, size=40)
    tloc[7], tx[7] = tloc[3], tx[3]
    for loc, x in ((tloc, tx), (tloc[:1], tx[:1])):
        for conditional, noise in ((posterior_field, False),
                                   (predictive_measurements, True)):
            pf = conditional(mf, "ev", (loc, x), full_cov=True)
            got = pf.covariance
            want = full_covariance_reference(mf, "ev", loc, x, add_noise=noise)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(got, got.T)
            assert np.array_equal(pf.variance, np.diag(got))


def test_zero_targets_give_an_empty_full_posterior():
    rng = np.random.default_rng(157)
    mf = make_fit(rng)
    targets = (np.zeros((0, 2)), np.zeros(0))
    for conditional in (posterior_field, predictive_measurements):
        for full_cov in (False, True):
            pf = conditional(mf, "ev", targets, full_cov=full_cov)
            assert pf.mean.shape == pf.variance.shape == (0,)
            if full_cov:
                assert pf.covariance.shape == (0, 0)
                assert sample_field(pf, 3, seed=1).shape == (3, 0)


def test_full_covariance_and_draws_hold_one_matrix():
    # tracemalloc peaks at m = 3000, K = 200, in m x m matrices: the
    # covariance is one buffer updated in place, its prior correlation
    # filled a block of rows at a time (measured 1.09), and sample_field's
    # pivoted factor is dpstrf's own output with its lower triangle zeroed
    # in place
    m = 3000
    rng = np.random.default_rng(151)
    mf = make_fit(rng, k=200)
    loc = rng.uniform(0, 12, size=(m, 2))
    x = rng.uniform(16, 40, size=m)
    posterior_field(mf, "ev", (loc[:5], x[:5]), full_cov=True)  # warm table
    matrix = m * m * 8
    tracemalloc.start()
    try:
        pf = posterior_field(mf, "ev", (loc, x), full_cov=True)
        posterior_peak = tracemalloc.get_traced_memory()[1] / matrix
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sample_field(pf, 20, seed=3)
        sample_peak = (tracemalloc.get_traced_memory()[1] - base) / matrix
    finally:
        tracemalloc.stop()
    assert posterior_peak <= 1.2, f"posterior_field {posterior_peak:.2f} matrices"
    assert sample_peak <= 1.25, f"sample_field {sample_peak:.2f} matrices"


def test_predict_grid_memory_is_bounded_by_the_block():
    # at K = 200 the dense cross-correlation and its temporaries grew the
    # peak by about 4.9 KB per cell; blocked, only O(1) arrays per cell
    # remain (centres, mask, mean, variance, ...)
    rng = np.random.default_rng(131)
    mf = make_fit(rng, k=200)

    def grid(n):
        vals = rng.uniform(10.0, 40.0, size=(n, n))
        return GridField(event="ev", n1=n, n2=n, origin=(0.0, 0.0),
                         spacing=(12.0 / n, 12.0 / n), values=vals)

    predict_grid(mf, "ev", grid(5))   # builds the kernel table outside
    peaks = {}
    for n in (100, 200):
        g = grid(n)
        tracemalloc.start()
        try:
            predict_grid(mf, "ev", g)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    per_cell = (peaks[200] - peaks[100]) / (200 ** 2 - 100 ** 2)
    assert per_cell < 512, f"{per_cell:.0f} bytes per added cell"


def test_full_cov_over_the_limit_raises_before_any_work(monkeypatch):
    rng = np.random.default_rng(137)
    mf = make_fit(rng)

    def forbidden(*args):
        raise AssertionError("correlation computed before the size check")

    monkeypatch.setattr(prediction, "correlation_block", forbidden)
    n = prediction.FULL_COV_MAX_TARGETS + 1
    targets = (np.zeros((n, 2)), np.full(n, 20.0))
    with pytest.raises(prediction.CovarianceTooLarge,
                       match=f"limited to {n - 1} targets; {n} targets ask "
                             f"for a {n} x {n} matrix"):
        posterior_field(mf, "ev", targets, full_cov=True)
    with pytest.raises(prediction.CovarianceTooLarge):
        predictive_measurements(mf, "ev", targets)
    assert prediction.FULL_COV_MAX_TARGETS >= 5000


def test_predict_grid_all_missing():
    rng = np.random.default_rng(109)
    mf = make_fit(rng)
    grid = GridField(event="ev", n1=2, n2=2, origin=(0, 0), spacing=(1, 1),
                     values=np.full((2, 2), np.nan))
    with pytest.raises(ValueError):
        predict_grid(mf, "ev", grid)


def test_export_grids_layout():
    rng = np.random.default_rng(113)
    mf = make_fit(rng)
    vals = rng.uniform(16.0, 40.0, size=(3, 4))
    vals[0, 1] = np.nan
    grid = GridField(event="ev", n1=3, n2=4, origin=(0, 0), spacing=(1, 1),
                     values=vals)
    pf = predict_grid(mf, "ev", grid)
    out = export_grids(pf, grid)
    assert set(out) == {"mean", "sd", "diff", "ratio", "extrapolated"}
    for g in out.values():
        assert g.values.shape == (3, 4)
        assert np.isnan(g.values[0, 1])  # missing stays missing
    live = np.isfinite(vals)
    np.testing.assert_allclose(out["diff"].values[live],
                               out["mean"].values[live] - vals[live],
                               rtol=1e-12)
    np.testing.assert_allclose(out["ratio"].values[live],
                               out["mean"].values[live] / vals[live],
                               rtol=1e-12)
    np.testing.assert_allclose(out["sd"].values[live] ** 2,
                               pf.variance, rtol=1e-12)
    # point predictions do not carry a grid layout
    pts = posterior_field(mf, "ev", (np.array([[1.0, 1.0]]),
                                     np.array([20.0])))
    with pytest.raises(ValueError):
        export_grids(pts, grid)


def test_ratio_is_missing_where_the_quotient_overflows(tmp_path):
    # a subnormal simulated value is legal input, but the mean over it
    # overflows: the ratio grid must mark it missing, without a warning,
    # so that it reloads; finite ratios stay the plain quotient
    rng = np.random.default_rng(151)
    mf = make_fit(rng)
    vals = np.array([[20.0, 1e-310], [-1e-310, 30.0]])
    grid = GridField(event="ev", n1=2, n2=2, origin=(1, 1), spacing=(2, 2),
                     values=vals)
    pf = predict_grid(mf, "ev", grid)
    # so mean / 1e-310 overflows
    assert np.all(np.abs(pf.mean[1:3]) > 1e-310 * np.finfo(float).max)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = export_grids(pf, grid)
    ratio = out["ratio"].values
    assert np.isnan(ratio[0, 1]) and np.isnan(ratio[1, 0])
    live = np.array([[True, False], [False, True]])
    assert np.array_equal(ratio[live], out["mean"].values[live] / vals[live])
    save_grid(out["ratio"], tmp_path / "ratio.fg")
    back = load_grid(tmp_path / "ratio.fg").values
    np.testing.assert_array_equal(np.isnan(back), ~live)
    np.testing.assert_allclose(back[live], ratio[live], rtol=1e-5)


def test_intervals():
    pf = PosteriorField(event="e", locations=np.zeros((1, 2)),
                        intensities=np.array([20.0]),
                        mean=np.array([10.0]), variance=np.array([4.0]),
                        covariance=None, df=20, space="actual_field")
    lo_g, hi_g = pf.interval(0.95, law="gauss")
    lo_t, hi_t = pf.interval(0.95, law="t")
    assert hi_g[0] == pytest.approx(10.0 + 1.9599639845400536 * 2.0,
                                    rel=1e-12)
    assert hi_t[0] > hi_g[0]  # heavier tails at df = 20
    lo_a, hi_a = pf.interval(0.95, law="auto")
    assert hi_a[0] == hi_t[0]  # df <= 30 uses t
    pf_wide = PosteriorField(event="e", locations=np.zeros((1, 2)),
                             intensities=np.array([20.0]),
                             mean=np.array([10.0]), variance=np.array([4.0]),
                             covariance=None, df=200, space="actual_field")
    lo_a, hi_a = pf_wide.interval(0.95, law="auto")
    assert hi_a[0] == pytest.approx(hi_g[0], rel=1e-12)
    with pytest.raises(ValueError):
        pf.interval(0.0)
    with pytest.raises(ValueError):
        pf.interval(0.95, law="cauchy")


def test_target_forms_equivalent():
    rng = np.random.default_rng(131)
    mf = make_fit(rng)
    loc = np.array([[1.0, 2.0], [3.0, 4.0]])
    x = np.array([20.0, 30.0])
    a = posterior_field(mf, "ev", (loc, x))
    # the (locations, intensities) pair takes any array-likes, and one
    # target may come as a bare (s1, s2) location with a scalar intensity
    b = posterior_field(mf, "ev", ([[1, 2], [3, 4]], [20, 30]))
    c = posterior_field(mf, "ev", ((3.0, 4.0), 30.0))
    np.testing.assert_array_equal(a.mean, b.mean)
    np.testing.assert_array_equal(a.variance, b.variance)
    np.testing.assert_array_equal(c.locations, loc[1:])
    np.testing.assert_array_equal(c.intensities, x[1:])
    np.testing.assert_allclose(c.mean, a.mean[1:], rtol=1e-13)
    np.testing.assert_allclose(c.variance, a.variance[1:], rtol=1e-13)


def test_posterior_field_validation():
    with pytest.raises(ValueError):
        PosteriorField(event="e", locations=np.zeros((2, 2)),
                       intensities=np.array([20.0]),
                       mean=np.array([1.0, 2.0]),
                       variance=np.array([1.0, 1.0]), covariance=None,
                       df=5, space="actual_field")
    with pytest.raises(ValueError):
        PosteriorField(event="e", locations=np.zeros((1, 2)),
                       intensities=np.array([20.0]),
                       mean=np.array([np.nan]), variance=np.array([1.0]),
                       covariance=None, df=5, space="actual_field")
    with pytest.raises(ValueError):
        PosteriorField(event="e", locations=np.zeros((1, 2)),
                       intensities=np.array([20.0]),
                       mean=np.array([1.0]), variance=np.array([1.0]),
                       covariance=None, df=5, space="banana")
    with pytest.raises(ValueError):
        PosteriorField(event="e", locations=np.zeros((2, 2)),
                       intensities=np.array([20.0, 21.0]),
                       mean=np.array([1.0, 2.0]),
                       variance=np.array([1.0, 1.0]),
                       covariance=np.zeros((3, 3)), df=5,
                       space="actual_field")
