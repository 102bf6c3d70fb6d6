"""Semivariogram and held-out validation diagnostics."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy import stats

from fieldcal.covariance import (
    Hyperparameters,
    correlation_block,
    correlation_matrix_arrays,
    rotate_array,
)
from fieldcal.dataio import EventDataset
from fieldcal.diagnostics import (
    EmptyBin,
    ValidationReport,
    VariogramTable,
    semivariogram,
    validation_report,
)
from fieldcal.inference import ModelFit, PriorSpec, event_statistics, log_posterior_theta
from fieldcal.numerics import cholesky, pivoted_cholesky
from fieldcal.prediction import posterior_field, predictive_measurements

from _oracles import (f_cdf_quadrature, normal_quantile_bisect,
                      validation_reference)

# Frozen oracle output (quadrature, computed once and pinned).
F_CDF_25_4_20 = 0.9248533703647283    # f_cdf_quadrature(2.5, 4, 20)
Z_975 = 1.9599639845400536            # normal_quantile_bisect(0.975)
Z_001 = -3.090232306167821            # normal_quantile_bisect(0.001)

THETA = Hyperparameters(omega=0.15, lambda2=0.5, phi1=3.0, phi2=2.2,
                        nu1=1.2, nu2=0.9, phiX=10.0)
PRIOR = PriorSpec(b=[0.0, 1.0, 0.0], B=np.diag([0.5, 0.5, 0.5]),
                  a=2.0, d=3.0, sigmaY=1.5)


def gp_dataset(rng, k, event="ev", theta=THETA, prior=PRIOR, sigma2=9.0):
    """Draw one event's pairs from the model itself."""
    loc = rng.uniform(0, 15, size=(k, 2))
    x = rng.uniform(16, 40, size=k)
    a_mat = correlation_matrix_arrays(theta, rotate_array(loc, theta.omega), x)
    beta = np.array([1.0, 0.9, 0.001])[:prior.q]
    h = np.column_stack([x ** i for i in range(prior.q)])
    y = h @ beta + cholesky(sigma2 * a_mat).lower @ rng.standard_normal(k)
    return EventDataset(event, loc, x, y, threshold=15.0)


def fit_of(train, theta=THETA, prior=PRIOR):
    ef = event_statistics(train, theta, prior)
    lp = log_posterior_theta([train], theta, prior)
    return ModelFit(theta=theta, events=(ef,), prior=prior, log_posterior=lp)


def split(rng, k_train, k_hold):
    ds = gp_dataset(rng, k_train + k_hold)
    idx = rng.permutation(k_train + k_hold)
    return ds.subset(np.sort(idx[:k_train])), ds.subset(np.sort(idx[k_train:]))


def holdouts_at(rng, df2, n, ds):
    """A fit with K - q = ``df2`` and, for each D in ``ds``, ``n`` held-out
    pairs whose measurements give the Mahalanobis statistic D up to
    rounding: one residual direction, rescaled."""
    train, hold = split(rng, df2 + PRIOR.q, n)
    mf = fit_of(train)
    pf = predictive_measurements(mf, "ev", (hold.locations, hold.x),
                                 full_cov=True)
    factor = cholesky(pf.covariance)
    r = factor.lower @ rng.standard_normal(n)
    r /= math.sqrt(float(r @ factor.solve(r)) / n)  # D = 1
    return mf, [EventDataset("ev", hold.locations, hold.x,
                             pf.mean + math.sqrt(d) * r, threshold=15.0)
                for d in ds]


def test_standardized_errors_zero_at_predictive_mean():
    rng = np.random.default_rng(201)
    train, hold = split(rng, 14, 5)
    mf = fit_of(train)
    pf = predictive_measurements(mf, "ev", (hold.locations, hold.x),
                                 full_cov=False)
    exact = EventDataset("ev", hold.locations, hold.x, pf.mean,
                         threshold=15.0)
    rep = validation_report(mf, exact)
    np.testing.assert_allclose(rep.standardized_errors, np.zeros(5), atol=1e-12)
    assert rep.mahalanobis == pytest.approx(0.0, abs=1e-20)
    assert rep.mahalanobis_pvalue == pytest.approx(1.0, rel=1e-12)


def test_standardized_errors_scale():
    rng = np.random.default_rng(203)
    train, hold = split(rng, 14, 5)
    mf = fit_of(train)
    pf = predictive_measurements(mf, "ev", (hold.locations, hold.x),
                                 full_cov=False)
    shifted = EventDataset("ev", hold.locations, hold.x,
                           pf.mean + 2.0 * pf.sd, threshold=15.0)
    z = validation_report(mf, shifted).standardized_errors
    np.testing.assert_allclose(z, np.full(5, 2.0), rtol=1e-10)


def test_pivoted_errors_recorrelate():
    rng = np.random.default_rng(207)
    train, hold = split(rng, 16, 6)
    mf = fit_of(train)
    rep = validation_report(mf, hold)
    epc, piv = rep.pivoted_errors, rep.pivot_indices
    assert sorted(piv.tolist()) == list(range(6))
    pf = predictive_measurements(mf, "ev", (hold.locations, hold.x),
                                 full_cov=True)
    factor = pivoted_cholesky(pf.covariance)
    g = np.zeros((6, 6))
    g[factor.permutation, :] = factor.upper.T
    resid = hold.y - pf.mean
    np.testing.assert_allclose(g @ epc, resid, rtol=1e-8, atol=1e-10)


def test_pivoted_errors_are_standard_normal_under_model():
    # simulate holdout data from the predictive law itself; decorrelated
    # errors must then behave like iid N(0, 1)
    rng = np.random.default_rng(209)
    train, hold = split(rng, 18, 4)
    mf = fit_of(train)
    pf = predictive_measurements(mf, "ev", (hold.locations, hold.x),
                                 full_cov=True)
    lower = cholesky(pf.covariance).lower
    reps = 400
    all_e = np.empty((reps, 4))
    for r in range(reps):
        y_star = pf.mean + lower @ rng.standard_normal(4)
        ds = EventDataset("ev", hold.locations, hold.x, y_star,
                          threshold=15.0)
        all_e[r] = validation_report(mf, ds).pivoted_errors
    m = all_e.mean(axis=0)
    v = all_e.var(axis=0)
    assert np.all(np.abs(m) < 4.5 / math.sqrt(reps))
    assert np.all((0.75 < v) & (v < 1.3))


def test_mahalanobis_single_point_is_squared_t():
    # with one holdout point, D is referenced to F(1, K-q) which must
    # reproduce the two-sided t test on the standardized error, and the
    # pivoted error is the standardized error
    rng = np.random.default_rng(211)
    train, hold = split(rng, 15, 1)
    mf = fit_of(train)
    rep = validation_report(mf, hold)
    d, p = rep.mahalanobis, rep.mahalanobis_pvalue
    z = rep.standardized_errors
    assert rep.pivoted_errors[0] == pytest.approx(float(z[0]), rel=1e-12)
    assert rep.pivot_indices.tolist() == [0]
    assert d == pytest.approx(float(z[0] ** 2), rel=1e-10)
    df2 = len(train) - PRIOR.q
    want = 2.0 * float(stats.t.sf(abs(z[0]), df2))
    assert p == pytest.approx(want, rel=1e-9)


def test_mahalanobis_reorder_invariant():
    rng = np.random.default_rng(213)
    train, hold = split(rng, 14, 6)
    mf = fit_of(train)
    def mahalanobis(validation):
        rep = validation_report(mf, validation)
        return rep.mahalanobis, rep.mahalanobis_pvalue

    d1, p1 = mahalanobis(hold)
    perm = rng.permutation(6)
    d2, p2 = mahalanobis(hold.subset(np.sort(perm)))
    # subset sorts indices, so shuffle by rebuilding instead
    shuffled = EventDataset("ev", hold.locations[perm], hold.x[perm],
                            hold.y[perm], threshold=15.0)
    d3, p3 = mahalanobis(shuffled)
    assert d1 == pytest.approx(d2, rel=1e-12)
    assert d1 == pytest.approx(d3, rel=1e-10)
    assert p1 == pytest.approx(p3, rel=1e-9)
    assert 0.0 <= p1 <= 1.0 and d1 > 0.0


def test_validation_report_bundle():
    rng = np.random.default_rng(217)
    train, hold = split(rng, 16, 5)
    mf = fit_of(train)
    rep = validation_report(mf, hold)
    assert isinstance(rep, ValidationReport)
    assert rep.qq_pairs.shape == (5, 2)
    np.testing.assert_array_equal(rep.qq_pairs[:, 1],
                                  np.sort(rep.pivoted_errors))
    assert np.all(np.diff(rep.qq_pairs[:, 0]) > 0)
    assert rep.df_pair == (5, 16 - 3)
    assert rep.mahalanobis_raw == pytest.approx(
        float(np.sum(rep.standardized_errors ** 2)), rel=1e-12)
    assert 0.0 <= rep.mahalanobis_pvalue <= 1.0
    good = dict(mean=np.zeros(3), standardized_errors=np.zeros(3),
                pivoted_errors=np.zeros(3), pivot_indices=np.arange(3),
                qq_pairs=np.zeros((3, 2)), mahalanobis=1.0,
                mahalanobis_raw=3.0, mahalanobis_pvalue=0.5, df_pair=(3, 10))
    ValidationReport(**good)
    for bad in (dict(good, pivoted_errors=np.zeros(2),
                     pivot_indices=np.arange(2)),
                dict(good, mean=np.zeros(2))):
        with pytest.raises(ValueError):
            ValidationReport(**bad)


def test_validation_qq_quantiles():
    # the theoretical column is the normal quantile at (i - 0.5) / n: lower
    # tail, median and upper tail against the bisection oracle
    first = {}
    for seed, n in ((221, 1), (223, 5), (227, 20), (229, 500)):
        train, hold = split(np.random.default_rng(seed), 16, n)
        theo = validation_report(fit_of(train), hold).qq_pairs[:, 0]
        p = (np.arange(1, n + 1) - 0.5) / n
        np.testing.assert_allclose(
            theo, [normal_quantile_bisect(pi) for pi in p], rtol=0, atol=1e-12)
        # round trip through the exact CDF
        cdf = [0.5 * (1.0 + math.erf(q / math.sqrt(2.0))) for q in theo]
        np.testing.assert_allclose(cdf, p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(theo, -theo[::-1], rtol=0, atol=1e-12)
        if n % 2:
            assert theo[n // 2] == 0.0
        first[n] = theo[0]
    assert first[20] == pytest.approx(-Z_975, abs=1e-12)             # p = 0.025
    assert first[500] == pytest.approx(Z_001, abs=1e-12)             # p = 0.001


def test_mahalanobis_pvalue_basics():
    # at D = 0 the F(n, K - q) upper tail is exactly 1
    mf, (hold,) = holdouts_at(np.random.default_rng(401), 7, 3, [0.0])
    rep = validation_report(mf, hold)
    assert rep.mahalanobis == 0.0 and rep.mahalanobis_pvalue == 1.0
    # F(d, d) has median exactly 1
    for d in (1, 4, 11):
        mf, (hold,) = holdouts_at(np.random.default_rng(403 + d), d, d, [1.0])
        rep = validation_report(mf, hold)
        assert rep.df_pair == (d, d)
        assert rep.mahalanobis_pvalue == pytest.approx(0.5, abs=1e-12)
    mf, (hold,) = holdouts_at(np.random.default_rng(419), 20, 4, [2.5])
    assert 1.0 - validation_report(mf, hold).mahalanobis_pvalue == (
        pytest.approx(F_CDF_25_4_20, rel=1e-12))


def test_mahalanobis_pvalue_against_live_quadrature():
    for seed, (d, n, df2) in enumerate(((0.8, 1, 5), (1.7, 8, 3),
                                        (3.0, 30, 147))):
        mf, (hold,) = holdouts_at(np.random.default_rng(421 + seed), df2, n,
                                  [d])
        rep = validation_report(mf, hold)
        assert rep.df_pair == (n, df2)
        assert rep.mahalanobis == pytest.approx(d, rel=1e-12)
        want = f_cdf_quadrature(rep.mahalanobis, n, df2)
        assert 1.0 - rep.mahalanobis_pvalue == pytest.approx(want, rel=1e-9)


def test_mahalanobis_pvalue_monotone_and_complement():
    ds = np.linspace(0.0, 8.0, 30)
    mf, holds = holdouts_at(np.random.default_rng(431), 9, 5, ds)
    ps = [validation_report(mf, hold).mahalanobis_pvalue for hold in holds]
    assert all(b <= a for a, b in zip(ps, ps[1:]))
    mf, holds = holdouts_at(np.random.default_rng(433), 9, 5,
                            [0.3, 1.0, 2.7, 15.0])
    for hold in holds:
        rep = validation_report(mf, hold)
        assert (f_cdf_quadrature(rep.mahalanobis, 5, 9)
                + rep.mahalanobis_pvalue == pytest.approx(1.0, abs=1e-13))


def test_validation_report_matches_reference():
    # one conditioning against the three it replaced; tolerances fixed
    # before measuring: 1e-12 relative where the arithmetic differs
    # (diagonal vs full-covariance variance, pivoted vs plain Cholesky),
    # equality where it does not
    for seed, k_train, k_hold in ((301, 16, 2), (303, 20, 5), (305, 30, 12),
                                  (307, 40, 30)):
        rng = np.random.default_rng(seed)
        train, hold = split(rng, k_train, k_hold)
        mf = fit_of(train)
        rep = validation_report(mf, hold)
        std, epc, piv, d_mh, p = validation_reference(mf, hold)
        np.testing.assert_allclose(rep.standardized_errors, std, rtol=1e-12)
        np.testing.assert_array_equal(rep.pivoted_errors, epc)
        np.testing.assert_array_equal(rep.pivot_indices, piv)
        assert rep.mahalanobis == pytest.approx(d_mh, rel=1e-12)
        assert rep.mahalanobis_pvalue == pytest.approx(p, rel=1e-12)
        want_mean = posterior_field(mf, "ev", (hold.locations, hold.x)).mean
        np.testing.assert_array_equal(rep.mean, want_mean)


def test_semivariogram_three_points_by_hand():
    # bin the 4 fitted points themselves: 6 pairs -> 6 equal-count bins
    # of one pair each
    loc = np.array([[0.0, 0.0], [2.0, 0.5], [5.0, 3.0], [1.0, 4.0]])
    x = np.array([20.0, 26.0, 33.0, 24.0])
    y = np.array([19.0, 25.5, 30.0, 23.0])
    mf = fit_of(EventDataset("ev", loc, x, y, threshold=15.0))
    ef = mf.events[0]
    table = semivariogram(mf, "ev", "h1", bins=6, reps=50, seed=1)
    assert table.bins == 6
    np.testing.assert_array_equal(table.counts, np.ones(6))

    h = np.column_stack([x ** i for i in range(3)])
    e = y - h @ ef.beta_hat
    loc_t = rotate_array(loc, THETA.omega)
    pairs = list(itertools.combinations(range(4), 2))
    h1 = [abs(loc_t[i, 0] - loc_t[j, 0]) for i, j in pairs]
    order = np.argsort(h1)
    for bin_k, pair_k in enumerate(order):
        i, j = pairs[pair_k]
        assert table.empirical[bin_k] == pytest.approx(
            0.5 * (e[i] - e[j]) ** 2, rel=1e-10)
        c = correlation_block(THETA, loc_t[[i]], x[[i]], loc_t[[j]],
                              x[[j]])[0, 0]
        want_model = ef.sigma_hat2 * (1.0 + THETA.lambda2 - c)
        assert table.model[bin_k] == pytest.approx(want_model, rel=1e-10)
        assert table.bin_center[bin_k] == pytest.approx(h1[pair_k],
                                                        rel=1e-12)


def test_semivariogram_structure():
    rng = np.random.default_rng(219)
    ds = gp_dataset(rng, 30)
    mf = fit_of(ds)
    table = semivariogram(mf, "ev", "h1", bins=6, reps=100, seed=4)
    assert table.binning_variable == "h1"
    assert int(table.counts.sum()) == 30 * 29 // 2
    assert len(table.bin_edges) == 7
    assert np.all(table.lower95 <= table.model)
    assert np.all(table.model <= table.upper95)
    assert 0.0 <= table.fraction_inside() <= 1.0
    assert np.all(np.diff(table.bin_center) > 0)
    # all three binning variables work
    for var in ("h2", "delta_intensity"):
        t2 = semivariogram(mf, "ev", var, bins=5, reps=50, seed=4)
        assert t2.binning_variable == var


def test_semivariogram_empirical_shift_invariance():
    # pairwise differences kill any constant offset in the residuals
    rng = np.random.default_rng(223)
    ds = gp_dataset(rng, 12)
    mf = fit_of(ds)
    shifted = EventDataset("ev", ds.locations, ds.x, ds.y + 5.0,
                           threshold=15.0)
    mf_shifted = dataclasses.replace(
        mf, events=(dataclasses.replace(mf.events[0], dataset=shifted),))
    t1 = semivariogram(mf, "ev", "h1", bins=4, reps=30, seed=2)
    t2 = semivariogram(mf_shifted, "ev", "h1", bins=4, reps=30, seed=2)
    np.testing.assert_allclose(t2.empirical, t1.empirical, rtol=1e-12)
    np.testing.assert_allclose(t2.model, t1.model, rtol=1e-15)
    np.testing.assert_array_equal(t2.counts, t1.counts)


def test_semivariogram_pure_nugget_flat_model():
    theta = Hyperparameters(omega=0.0, lambda2=0.8, phi1=1e-3, phi2=1e-3,
                            nu1=0.5, nu2=0.5, phiX=1e-3)
    rng = np.random.default_rng(227)
    loc = rng.uniform(0, 15, size=(12, 2))
    x = rng.uniform(16, 40, size=12)
    y = x + rng.normal(0, 2, size=12)
    ds = EventDataset("ev", loc, x, y, threshold=15.0)
    mf = fit_of(ds, theta=theta)
    table = semivariogram(mf, "ev", "h1", bins=4, reps=30, seed=3)
    ef = mf.events[0]
    want = ef.sigma_hat2 * (1.0 + theta.lambda2)
    np.testing.assert_allclose(table.model, np.full(4, want), rtol=1e-9)


def test_semivariogram_mc_determinism():
    rng = np.random.default_rng(229)
    ds = gp_dataset(rng, 15)
    mf = fit_of(ds)
    t1 = semivariogram(mf, "ev", "h2", bins=4, reps=60, seed=11)
    t2 = semivariogram(mf, "ev", "h2", bins=4, reps=60, seed=11)
    np.testing.assert_array_equal(t1.lower95, t2.lower95)
    np.testing.assert_array_equal(t1.upper95, t2.upper95)
    t3 = semivariogram(mf, "ev", "h2", bins=4, reps=60, seed=12)
    assert not np.array_equal(t1.upper95, t3.upper95)


def test_semivariogram_errors():
    rng = np.random.default_rng(231)
    ds = gp_dataset(rng, 10)
    mf = fit_of(ds)
    with pytest.raises(ValueError):
        semivariogram(mf, "ev", "h3", bins=4)
    with pytest.raises(ValueError):
        semivariogram(mf, "ev", "h1", bins=2)
    for reps in (0, -3):
        with pytest.raises(ValueError, match="reps must be >= 1"):
            semivariogram(mf, "ev", "h1", bins=4, reps=reps)
    # 4 collinear equally spaced points: 6 pairs cannot fill 10 bins
    loc = np.column_stack([np.arange(4.0), np.zeros(4)])
    small = EventDataset("ev", loc, np.full(4, 20.0) + np.arange(4),
                         np.arange(4.0) + 18.0, threshold=15.0)
    mf_small = fit_of(small)
    with pytest.raises(EmptyBin):
        semivariogram(mf_small, "ev", "h1", bins=10)


def test_variogram_table_validation():
    good = dict(binning_variable="h1", bin_edges=np.arange(5.0),
                bin_center=np.arange(4.0) + 0.5,
                empirical=np.ones(4), model=np.ones(4),
                lower95=np.full(4, 0.5), upper95=np.full(4, 1.5),
                counts=np.ones(4, dtype=int))
    VariogramTable(**good)
    bad = dict(good, lower95=np.full(4, 1.2))  # bound above model
    with pytest.raises(ValueError):
        VariogramTable(**bad)
    bad = dict(good, counts=np.array([1, 1, 0, 1]))
    with pytest.raises(ValueError):
        VariogramTable(**bad)
    bad = dict(good, bin_edges=np.arange(4.0))
    with pytest.raises(ValueError):
        VariogramTable(**bad)
