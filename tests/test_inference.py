"""Conjugate event statistics, the hyperparameter posterior, fitting, and
the fit artifact. Reference values come from brute-force quadrature over
(beta, sigma2) and from closed-form special cases."""

import math

import numpy as np
import pytest

from fieldcal.covariance import Hyperparameters, correlation_matrix_arrays, rotate_array
from fieldcal.dataio import EventDataset
from fieldcal.inference import (
    ArtifactError,
    FitWarning,
    ModelFit,
    OptimizationFailed,
    PriorSpec,
    SIGMA2_FLOOR,
    TooFewObservations,
    UnknownEvent,
    _pack,
    _unpack,
    _wrap_angle,
    basis_matrix,
    default_prior,
    default_theta0,
    event_statistics,
    fit,
    format_fit,
    load_fit,
    log_posterior_theta,
    read_fit,
    save_fit,
)
from fieldcal.numerics import OptimizerOptions
from _oracles import (event_statistics_reference, log_posterior_reference,
                      nig_log_evidence_quadrature, nig_regression_quadrature,
                      scale_term_longdouble)

THETA = Hyperparameters(omega=0.25, lambda2=0.3, phi1=2.5, phi2=1.8,
                        nu1=1.1, nu2=0.9, phiX=9.0)


def make_dataset(rng, k, event="ev", scale=8.0):
    loc = rng.uniform(0, scale, size=(k, 2))
    x = rng.uniform(16, 40, size=k)
    y = 0.8 * x + rng.normal(0, 4, size=k)
    return EventDataset(event, loc, x, np.abs(y), threshold=15.0)


def test_basis_vectors():
    np.testing.assert_array_equal(basis_matrix([3.0], 1)[0], [1.0])
    np.testing.assert_array_equal(basis_matrix([3.0], 2)[0], [1.0, 3.0])
    np.testing.assert_array_equal(basis_matrix([3.0], 3)[0], [1.0, 3.0, 9.0])
    with pytest.raises(ValueError):
        basis_matrix([3.0], 4)
    m = basis_matrix([2.0, 5.0], 3)
    np.testing.assert_array_equal(m, [[1, 2, 4], [1, 5, 25]])
    with pytest.raises(ValueError):
        basis_matrix([1.0], 0)


def test_prior_spec_validation():
    with pytest.raises(ValueError):
        PriorSpec(b=[0.0, 1.0], B=np.eye(3))  # b length vs degree default 2
    with pytest.raises(ValueError):
        PriorSpec(b=[0.0, 1.0, 0.0], B=np.eye(2))
    with pytest.raises(ValueError):
        PriorSpec(b=[0.0], B=[[1.0]], a=-1.0, basis_degree=0)
    with pytest.raises(ValueError):
        PriorSpec(b=[0.0], B=[[1.0]], sigmaY=0.0, basis_degree=0)
    with pytest.raises(ValueError, match="basis_degree"):
        PriorSpec(b=np.zeros(4), B=np.eye(4), basis_degree=3)
    # a non-finite setting is named, not left to fail inside LAPACK or
    # the objective
    for bad in (math.nan, math.inf, -math.inf):
        for name, kwargs in (
                ("b", dict(b=[0.0, bad, 0.0])),
                ("B", dict(B=np.diag([0.1, bad, 1.0]))),
                ("a", dict(a=bad)), ("d", dict(d=bad)),
                ("sigmaY", dict(sigmaY=bad))):
            spec = {"b": [0.0, 1.0, 0.0], "B": np.eye(3), **kwargs}
            with pytest.raises(ValueError, match=f"prior {name} must be finite"):
                PriorSpec(**spec)
    p = default_prior()
    assert p.q == 3
    np.testing.assert_array_equal(p.b, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(p.B, np.diag([0.1, 1.0, 1.0]))
    assert p.sigmaY == 3.0


def test_event_statistics_matches_quadrature():
    # intercept-only mean keeps the brute-force integral two-dimensional
    rng = np.random.default_rng(101)
    for trial in range(2):
        k = int(rng.integers(4, 8))
        ds = make_dataset(rng, k)
        prior = PriorSpec(b=[1.0], B=[[float(rng.uniform(0.5, 2.0))]],
                          a=float(rng.uniform(0.5, 3.0)),
                          d=int(rng.integers(1, 4)), basis_degree=0)
        ef = event_statistics(ds, THETA, prior)
        a_mat = correlation_matrix_arrays(
            THETA, rotate_array(ds.locations, THETA.omega), ds.x)
        e_beta, e_inv_sig2 = nig_regression_quadrature(
            ds.y, np.ones(k), a_mat, 1.0, float(prior.B[0, 0]),
            prior.a, prior.d)
        assert ef.beta_hat[0] == pytest.approx(e_beta, rel=1e-3)
        # E[1/sigma2] = (K + d) / S for this conjugate family
        assert (ef.K + prior.d) / ef.S == pytest.approx(e_inv_sig2, rel=1e-3)


def test_gls_limit_under_vague_prior():
    # far-apart stations make A = (1+lambda2) I exactly, so the vague-prior
    # posterior mean must match ordinary least squares
    rng = np.random.default_rng(7)
    k = 12
    loc = np.column_stack([np.arange(k) * 1000.0, np.zeros(k)])
    x = rng.uniform(16, 40, size=k)
    y = 5.0 + 0.7 * x + rng.normal(0, 3, size=k)
    ds = EventDataset("iid", loc, x, y, threshold=15.0)
    prior = PriorSpec(b=[0.0, 0.0], B=1e8 * np.eye(2), a=0.0, d=0.0,
                      basis_degree=1)
    ef = event_statistics(ds, THETA, prior)
    h = basis_matrix(x, 2)
    beta_ols, *_ = np.linalg.lstsq(h, y, rcond=None)
    np.testing.assert_allclose(ef.beta_hat, beta_ols, rtol=1e-5)
    rss = float(np.sum((y - h @ beta_ols) ** 2))
    want_sigma2 = rss / (1.0 + THETA.lambda2) / k
    assert ef.sigma_hat2 == pytest.approx(want_sigma2, rel=1e-5)
    # GLS orthogonality: H^T A^{-1} residual -> 0 in the vague limit
    np.testing.assert_allclose(h.T @ ef.weights, np.zeros(2), atol=1e-6)


def prior_mean_event():
    # y drawn exactly from the prior mean surface with a = 0
    rng = np.random.default_rng(11)
    ds = make_dataset(rng, 9)
    b = np.array([2.0, 0.8, -0.01])
    y = basis_matrix(ds.x, 3) @ b
    ds = EventDataset(ds.event, ds.locations, ds.x, y, threshold=15.0)
    return ds, PriorSpec(b=b, B=np.diag([0.5, 0.5, 0.5]), a=0.0, d=0.0)


def test_exact_prior_mean_data():
    # data on the prior mean surface give back b and a floored scale
    # estimate
    ds, prior = prior_mean_event()
    b = prior.b
    ef = event_statistics(ds, THETA, prior)
    np.testing.assert_allclose(ef.beta_hat, b, rtol=1e-9)
    assert ef.sigma_floored
    assert ef.sigma_hat2 == SIGMA2_FLOOR
    assert log_posterior_theta([ds], THETA, prior) == -math.inf


def test_shrinkage_identity():
    # H^T A^{-1}(y - H beta_hat) = B^{-1}(beta_hat - b) for any prior
    rng = np.random.default_rng(13)
    ds = make_dataset(rng, 10)
    prior = default_prior()
    ef = event_statistics(ds, THETA, prior)
    lhs = ef.H.T @ ef.weights
    rhs = np.linalg.solve(prior.B, ef.beta_hat - prior.b)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)
    assert ef.df == ef.K + prior.d


def test_too_few_observations():
    rng = np.random.default_rng(17)
    ds = make_dataset(rng, 3)  # K = q = 3
    with pytest.raises(TooFewObservations):
        event_statistics(ds, THETA, default_prior())
    with pytest.raises(TooFewObservations):
        fit([ds], default_prior(), OptimizerOptions(max_evals=10))


def test_scale_equivariance():
    # with b = 0 and a = 0 the statistics are equivariant under y -> c y
    rng = np.random.default_rng(19)
    ds = make_dataset(rng, 8)
    prior = PriorSpec(b=np.zeros(3), B=np.diag([0.3, 0.7, 1.1]), a=0.0, d=0.0)
    c = 3.7
    ds_scaled = EventDataset(ds.event, ds.locations, ds.x, c * ds.y,
                             threshold=15.0)
    ef = event_statistics(ds, THETA, prior)
    ef_c = event_statistics(ds_scaled, THETA, prior)
    np.testing.assert_allclose(ef_c.beta_hat, c * ef.beta_hat, rtol=1e-10)
    assert ef_c.sigma_hat2 == pytest.approx(c * c * ef.sigma_hat2, rel=1e-10)
    np.testing.assert_allclose(ef_c.weights, c * ef.weights, rtol=1e-9)


def test_permutation_invariance():
    rng = np.random.default_rng(23)
    ds = make_dataset(rng, 9)
    perm = rng.permutation(9)
    ds_p = EventDataset(ds.event, ds.locations[perm], ds.x[perm], ds.y[perm],
                        threshold=15.0)
    prior = default_prior()
    ef = event_statistics(ds, THETA, prior)
    ef_p = event_statistics(ds_p, THETA, prior)
    np.testing.assert_allclose(ef_p.beta_hat, ef.beta_hat, rtol=1e-9)
    assert ef_p.sigma_hat2 == pytest.approx(ef.sigma_hat2, rel=1e-9)
    lp = log_posterior_theta([ds], THETA, prior)
    lp_p = log_posterior_theta([ds_p], THETA, prior)
    assert lp_p == pytest.approx(lp, rel=1e-10)


def test_two_event_additivity():
    rng = np.random.default_rng(29)
    d1 = make_dataset(rng, 7, event="a")
    d2 = make_dataset(rng, 5, event="b")
    prior = default_prior()
    lp = log_posterior_theta([d1, d2], THETA, prior)
    lp1 = log_posterior_theta([d1], THETA, prior)
    lp2 = log_posterior_theta([d2], THETA, prior)
    assert lp == pytest.approx(lp1 + lp2, rel=1e-12)


def test_log_posterior_matches_quadrature_evidence_ratio():
    # differences of the theta objective must equal log ratios of the
    # fully marginalized likelihood, computed here by raw 2-D quadrature
    rng = np.random.default_rng(31)
    ds = make_dataset(rng, 6)
    prior = PriorSpec(b=[1.0], B=[[1.3]], a=1.7, d=2, basis_degree=0)
    th2 = Hyperparameters(omega=-0.2, lambda2=0.45, phi1=1.5, phi2=4.0,
                          nu1=0.7, nu2=1.6, phiX=5.0)
    delta_prod = (log_posterior_theta([ds], THETA, prior)
                  - log_posterior_theta([ds], th2, prior))
    log_ev = []
    for th in (THETA, th2):
        a_mat = correlation_matrix_arrays(
            th, rotate_array(ds.locations, th.omega), ds.x)
        log_ev.append(nig_log_evidence_quadrature(
            ds.y, np.ones(len(ds)), a_mat, 1.0, 1.3, 1.7, 2))
    assert delta_prod == pytest.approx(log_ev[0] - log_ev[1], abs=5e-6)


def _duplicated_records():
    # two identical records with a zero nugget make A exactly singular
    loc = np.array([[1.0, 1.0], [1.0, 1.0], [4.0, 5.0], [2.0, 3.0]])
    x = np.array([20.0, 20.0, 25.0, 30.0])
    y = np.array([18.0, 19.0, 22.0, 28.0])
    theta = Hyperparameters(omega=0.0, lambda2=0.0, phi1=2.0, phi2=2.0,
                            nu1=1.0, nu2=1.0, phiX=8.0)
    return EventDataset("e", loc, x, y, threshold=15.0), theta


def test_duplicated_records_survive_via_jitter():
    # the single-shot jitter rescue keeps the objective finite
    ds, theta0 = _duplicated_records()
    prior = PriorSpec(b=[0.0], B=[[1.0]], basis_degree=0)
    lp = log_posterior_theta([ds], theta0, prior)
    assert math.isfinite(lp)


def test_event_update_factor_matches_the_public_one(monkeypatch):
    # the update factors the buffer its matrix was built in, with the
    # public cholesky's numbers, bit for bit; the jitter retry rebuilds
    # the matrix, as the failed factor has overwritten the first buffer
    import fieldcal.inference as inf
    from fieldcal import covariance
    from fieldcal.numerics import cholesky

    built = []

    def spy(*args):
        built.append(covariance._correlation_upper(*args))
        return built[-1]

    monkeypatch.setattr(inf, "_correlation_upper", spy)
    rng = np.random.default_rng(191)
    dup, dup_theta = _duplicated_records()
    prior = PriorSpec(b=[0.0], B=[[1.0]], basis_degree=0)
    for ds, theta, builds in ((make_dataset(rng, 40), THETA, 1),
                              (dup, dup_theta, 2)):
        built.clear()
        ef = event_statistics(ds, theta, prior)
        assert len(built) == builds
        want = cholesky(correlation_matrix_arrays(
            theta, rotate_array(ds.locations, theta.omega), ds.x))
        got = ef.A_factor
        assert np.array_equal(got.lower.view(np.uint64),
                              want.lower.view(np.uint64))
        assert (got.logdet, got.jitter) == (want.logdet, want.jitter)
        assert np.shares_memory(got.lower, built[-1]) == (builds == 1)
    assert want.jitter > 0.0


def test_fit_logs_the_jitter_retries(monkeypatch, caplog):
    import dataclasses
    import logging
    import fieldcal.inference as inf

    rng = np.random.default_rng(193)
    datasets = [make_dataset(rng, 12, event=f"ev{k}") for k in range(2)]
    opts = OptimizerOptions(max_evals=6)
    caplog.set_level(logging.DEBUG, logger="fieldcal.inference")
    inf.fit(datasets, default_prior(), opts, theta0=THETA)
    assert "0 of 12 event updates in the search needed the jitter retry" \
        in caplog.text
    # every factor flagged as retried: each update counts once
    factor = inf._cholesky_in_place
    monkeypatch.setattr(inf, "_cholesky_in_place", lambda build: dataclasses.replace(
        factor(build), jitter=1e-9))
    caplog.clear()
    inf.fit(datasets, default_prior(), opts, theta0=THETA)
    assert "12 of 12 event updates in the search needed the jitter retry" \
        in caplog.text


def test_factorization_failure_gives_neg_inf(monkeypatch):
    import fieldcal.inference as inf
    from fieldcal.numerics import NotPositiveDefinite

    def boom(*args, **kwargs):
        raise NotPositiveDefinite("forced")

    monkeypatch.setattr(inf, "_cholesky_in_place", boom)
    rng = np.random.default_rng(67)
    ds = make_dataset(rng, 6)
    assert inf.log_posterior_theta([ds], THETA, default_prior()) == -math.inf


def test_objective_matches_reference():
    # the one-solve objective against the per-event two-solve update it
    # replaced, at the closed-form and tabulated kernels with omega != 0;
    # tolerance set before measuring: 1e-12 relative
    rng = np.random.default_rng(71)
    datasets = [make_dataset(rng, k, event=f"ev{k}") for k in (9, 25, 60)]
    prior = PriorSpec(b=[0.5, 0.9, 0.0], B=np.diag([0.4, 0.8, 1.3]),
                      a=1.5, d=2.0)
    for nu1, nu2 in ((0.5, 0.5), (1.5, 1.5), (2.5, 2.5), (1.1, 0.9),
                     (0.5, 2.5), (3.7, 0.3)):
        theta = Hyperparameters(omega=0.6, lambda2=0.2, phi1=2.0, phi2=3.1,
                                nu1=nu1, nu2=nu2, phiX=7.0)
        want = log_posterior_reference(datasets, theta, prior)
        assert math.isfinite(want)
        assert log_posterior_theta(datasets, theta, prior) == pytest.approx(
            want, rel=1e-12)
        for ds in datasets:
            ef, ref = (event_statistics(ds, theta, prior),
                       event_statistics_reference(ds, theta, prior))
            np.testing.assert_allclose(ef.beta_hat, ref.beta_hat, rtol=1e-12)
            assert ef.sigma_hat2 == pytest.approx(ref.sigma_hat2, rel=1e-12)
            np.testing.assert_allclose(ef.weights, ref.weights, rtol=1e-10,
                                       atol=1e-12 * np.max(np.abs(ref.weights)))
            np.testing.assert_allclose(ef.Ainv_H, ref.Ainv_H, rtol=1e-12,
                                       atol=0.0)
            np.testing.assert_allclose(
                ef.Bstar_inv_factor.solve(np.eye(prior.q)), ref.Bstar,
                rtol=1e-12)
            assert ef.logdet_Bstar == pytest.approx(ref.logdet_Bstar, rel=1e-12)


def test_scale_term_is_stable_far_from_zero():
    # y = c + 0.8 x + N(0, 1e-3^2) with prior mean b = (c, 0.8, 0): S does
    # not depend on c in exact arithmetic. The reference evaluates it in
    # long double on the data moved back by c (exact, Sterbenz). Tolerance
    # set before measuring: 1e-5 relative at every offset.
    rng = np.random.default_rng(79)
    k = 80
    loc = rng.uniform(0, 8, size=(k, 2))
    x = rng.uniform(16, 40, size=k)
    noise = rng.normal(0.0, 1e-3, size=k)
    theta = THETA
    a_mat = correlation_matrix_arrays(theta, rotate_array(loc, theta.omega), x)
    h = basis_matrix(x, 3)
    for offset in (0.0, 1e3, 1e5, 1e7):
        y = offset + (0.8 * x + noise)
        prior = PriorSpec(b=[offset, 0.8, 0.0], B=np.diag([0.1, 1.0, 1.0]))
        ds = EventDataset("far", loc, x, y, threshold=15.0)
        ef = event_statistics(ds, theta, prior)
        near = PriorSpec(b=[0.0, 0.8, 0.0], B=prior.B)
        want = float(scale_term_longdouble(a_mat, y - offset, h, near))
        assert ef.S == pytest.approx(want, rel=1e-5), offset
        assert not ef.sigma_floored
        assert math.isfinite(log_posterior_theta([ds], theta, prior))
    # the cancelling form the update replaced, at the largest offset: y^T
    # A^{-1} y is near 1e16 there, so its S is a rounding residue of order
    # 0.1 or exactly 0, against 1e-4, and the check tells the two apart
    old = event_statistics_reference(ds, theta, prior).S
    assert abs(old / want - 1.0) > 0.5


def test_fit_evaluates_the_start_once(monkeypatch):
    import fieldcal.inference as inf

    rng = np.random.default_rng(83)
    datasets = [make_dataset(rng, 12, event=f"ev{i}") for i in range(2)]
    prior = default_prior()
    theta0 = default_theta0(datasets)
    at_start = _unpack(_pack(theta0))
    seen = []
    real = inf.log_posterior_theta

    def counting(events, theta, prior_, **kwargs):
        seen.append(theta)
        return real(events, theta, prior_, **kwargs)

    monkeypatch.setattr(inf, "log_posterior_theta", counting)
    mf = fit(datasets, prior, OptimizerOptions(max_evals=25))
    assert sum(th == at_start for th in seen) == 1
    assert mf.search.evaluations == len(seen) == 25
    assert mf.search.budget_exhausted
    # a start with no finite objective is still an OptimizationFailed
    bad0 = Hyperparameters(omega=0.0, lambda2=1e14, phi1=1.0, phi2=1.0,
                           nu1=1.0, nu2=1.0, phiX=8.0)
    with pytest.raises(OptimizationFailed, match="starting hyperparameters"):
        fit(datasets, prior, OptimizerOptions(max_evals=10), theta0=bad0)


def test_fit_reuses_the_updates_of_its_best_evaluation(monkeypatch):
    import dataclasses

    import fieldcal.inference as inf

    rng = np.random.default_rng(89)
    datasets = [make_dataset(rng, 12, event=f"ev{i}") for i in range(2)]
    prior = default_prior()
    built, values = [], []
    real, real_lp = inf.event_statistics, inf.log_posterior_theta

    def counting(ds, theta, prior_):
        built.append(real(ds, theta, prior_))
        return built[-1]

    def recording(*args, **kwargs):
        values.append(real_lp(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(inf, "event_statistics", counting)
    monkeypatch.setattr(inf, "log_posterior_theta", recording)
    for max_evals in range(10, 26):
        built.clear()
        values.clear()
        mf = fit(datasets, prior, OptimizerOptions(max_evals=max_evals))
        # the search returns its lowest evaluation, also when the budget
        # ran out right after it, and its updates are kept, not rebuilt
        assert max(values) == -mf.search.fun == mf.log_posterior
        assert len(built) == 2 * len(values) == 2 * mf.search.evaluations
        assert all(any(ef is b for b in built) for ef in mf.events)
        for ef, ds in zip(mf.events, datasets):
            np.testing.assert_array_equal(ef.beta_hat,
                                          real(ds, mf.theta, prior).beta_hat)

    # a search returning a point other than an evaluation it kept (here
    # its start) gets updates rebuilt at that point
    search = inf.nelder_mead
    monkeypatch.setattr(inf, "nelder_mead", lambda f, x0, opts: dataclasses.replace(
        search(f, x0, opts), x=np.array(x0)))
    built.clear()
    start = fit(datasets, prior, OptimizerOptions(max_evals=25))
    assert start.theta == _unpack(_pack(default_theta0(datasets)))
    assert [ef.dataset.event for ef in built[-2:]] == ["ev0", "ev1"]
    assert all(ef is b for ef, b in zip(start.events, built[-2:]))


def test_wrap_angle():
    assert _wrap_angle(0.4) == pytest.approx(0.4, rel=1e-15)
    assert _wrap_angle(0.4 + math.pi) == pytest.approx(0.4, rel=1e-12)
    assert _wrap_angle(0.4 - math.pi) == pytest.approx(0.4, rel=1e-12)
    assert _wrap_angle(math.pi / 2) == pytest.approx(math.pi / 2)
    # the open end of the interval folds to the closed end
    assert _wrap_angle(-math.pi / 2) == pytest.approx(math.pi / 2)
    assert _wrap_angle(2.0) == pytest.approx(2.0 - math.pi, rel=1e-12)


def test_angle_periodicity_of_model():
    # rotating by omega and omega + pi negates coordinates, which the
    # per-axis kernels cannot see
    rng = np.random.default_rng(37)
    loc = rng.uniform(0, 10, size=(6, 2))
    x = rng.uniform(16, 40, size=6)
    m1 = correlation_matrix_arrays(THETA, rotate_array(loc, THETA.omega), x)
    m2 = correlation_matrix_arrays(
        THETA, rotate_array(loc, THETA.omega - math.pi), x)
    np.testing.assert_allclose(m1, m2, rtol=1e-12)


def test_default_theta0():
    rng = np.random.default_rng(41)
    ds = make_dataset(rng, 20, scale=10.0)
    th = default_theta0([ds])
    assert th.phi1 == th.phi2 > 0
    assert th.phiX > 0
    assert th.omega == 0.0
    # 20% of the bounding-box diagonal
    span = ds.locations.max(axis=0) - ds.locations.min(axis=0)
    assert th.phi1 == pytest.approx(0.2 * math.hypot(*span), rel=1e-12)


def test_fit_improves_and_is_deterministic():
    rng = np.random.default_rng(43)
    datasets = [make_dataset(rng, 14, event=f"ev{i}") for i in range(2)]
    prior = default_prior()
    opts = OptimizerOptions(max_evals=150, simplex_tolerance=1e-4, seed=3)
    mf = fit(datasets, prior, opts)
    assert {ef.event for ef in mf.events} == {"ev0", "ev1"}
    lp0 = log_posterior_theta(datasets, default_theta0(datasets), prior)
    assert mf.log_posterior >= lp0 - 1e-12
    assert mf.log_posterior == pytest.approx(
        log_posterior_theta(datasets, mf.theta, prior), rel=1e-10)
    mf2 = fit(datasets, prior, opts)
    assert mf2.theta == mf.theta
    assert mf2.log_posterior == mf.log_posterior
    with pytest.raises(UnknownEvent):
        mf.event("nope")


def test_fit_warns_when_nugget_cannot_cover_noise():
    rng = np.random.default_rng(47)
    datasets = [make_dataset(rng, 10)]
    prior = PriorSpec(b=[0.0, 1.0, 0.0], B=np.diag([0.1, 1.0, 1.0]),
                      sigmaY=500.0)
    with pytest.warns(FitWarning):
        fit(datasets, prior, OptimizerOptions(max_evals=60,
                                              simplex_tolerance=1e-3))


def test_fit_rejects_empty_and_bad_start():
    with pytest.raises(ValueError):
        fit([], default_prior(), OptimizerOptions())
    rng = np.random.default_rng(53)
    ds = make_dataset(rng, 8)
    # nugget far outside the searchable box leaves no finite start
    bad0 = Hyperparameters(omega=0.0, lambda2=1e14, phi1=1.0, phi2=1.0,
                           nu1=1.0, nu2=1.0, phiX=8.0)
    with pytest.raises(OptimizationFailed):
        fit([ds], default_prior(), OptimizerOptions(max_evals=10),
            theta0=bad0)


def test_artifact_round_trip(tmp_path):
    rng = np.random.default_rng(59)
    datasets = [make_dataset(rng, 9, event="storm one"),
                make_dataset(rng, 6, event="B2")]
    prior = PriorSpec(b=[0.0, 1.0, 0.0], B=np.diag([0.2, 0.9, 1.4]),
                      a=0.8, d=2.0, sigmaY=2.5)
    mf = fit(datasets, prior, OptimizerOptions(max_evals=80,
                                               simplex_tolerance=1e-3))
    path = tmp_path / "fit.out"
    save_fit(mf, path)
    back = load_fit(path)
    assert back.theta == mf.theta  # 17 significant digits round-trip floats
    assert back.log_posterior == pytest.approx(mf.log_posterior, abs=1e-9)
    assert [ef.event for ef in back.events] == ["storm one", "B2"]
    for a in mf.events:
        b = back.event(a.event)
        np.testing.assert_allclose(b.beta_hat, a.beta_hat, rtol=1e-12)
        assert b.sigma_hat2 == pytest.approx(a.sigma_hat2, rel=1e-12)
        np.testing.assert_array_equal(b.dataset.locations,
                                      a.dataset.locations)
    assert back.prior.sigmaY == 2.5
    assert back.prior.q == 3
    # leading comment lines (as the CLI writes) are ignored
    commented = tmp_path / "fit2.out"
    commented.write_text("# tool x\n# config abc\n" + path.read_text())
    back2 = load_fit(commented)
    assert back2.theta == mf.theta


def test_artifact_data_rows_are_full_precision_text():
    # each station row is its four values as "%.17g", space-separated
    rng = np.random.default_rng(67)
    ds = make_dataset(rng, 9, event="rows")
    ds = EventDataset(ds.event, ds.locations, ds.x,
                      np.concatenate([[-0.0, 1e-300, 2.0 ** 60], ds.y[3:]]),
                      threshold=15.0)
    ef = event_statistics(ds, THETA, default_prior())
    text = format_fit(ModelFit(theta=THETA, events=(ef,),
                               prior=default_prior(), log_posterior=-1.0))
    lines = text.splitlines()
    start = lines.index(f"sigma2 {ef.sigma_hat2:.17g}") + 1
    want = [" ".join(f"{float(v):.17g}" for v in (*ds.locations[k], ds.x[k], ds.y[k]))
            for k in range(9)]
    assert lines[start:start + 9] == want and lines[start + 9] == "end"


def test_reloaded_log_posterior_is_the_objective(tmp_path):
    # load_fit reports the objective's value, -inf for a floored scale
    # estimate included, not an evidence that ignores the floor
    floored, floored_prior = prior_mean_event()
    plain = make_dataset(np.random.default_rng(61), 12)
    for ds, prior in ((floored, floored_prior), (plain, default_prior())):
        lp = log_posterior_theta([ds], THETA, prior)
        path = tmp_path / "fit.out"
        save_fit(ModelFit(theta=THETA, prior=prior, log_posterior=lp,
                          events=(event_statistics(ds, THETA, prior),)), path)
        assert load_fit(path).log_posterior == lp
    assert lp > -math.inf


def test_prediction_terms_are_computed_on_first_use():
    rng = np.random.default_rng(63)
    ds = make_dataset(rng, 10, event="lazy")
    ef = event_statistics(ds, THETA, default_prior())
    assert {"weights", "Ainv_H", "Linv"}.isdisjoint(vars(ef))
    assert (ef.event, ef.K) == ("lazy", 10)
    w = ef.weights
    assert ef.weights is w and "Ainv_H" not in vars(ef)
    # L^{-1}, lower and Fortran-ordered as BLAS dtrmm reads it
    linv = ef.Linv
    assert linv.flags.f_contiguous and "Linv" in vars(ef)
    np.testing.assert_array_equal(np.triu(linv, 1), 0.0)
    np.testing.assert_allclose(linv @ ef.A_factor.lower, np.eye(10),
                               rtol=0, atol=1e-12)


def test_artifact_errors(tmp_path):
    import warnings as _w

    rng = np.random.default_rng(61)
    with _w.catch_warnings():
        _w.simplefilter("ignore", FitWarning)
        mf = fit([make_dataset(rng, 8)], default_prior(),
                 OptimizerOptions(max_evals=40, simplex_tolerance=1e-3))
    path = tmp_path / "fit.out"
    save_fit(mf, path)
    text = path.read_text()

    bad = tmp_path / "bad.out"
    bad.write_text(text.replace("FIELDCALFIT v1", "FIELDCALFIT v9"))
    with pytest.raises(ArtifactError):
        load_fit(bad)

    lines = text.splitlines()
    bad.write_text("\n".join(lines[:-3]) + "\n")  # truncated data block
    with pytest.raises(ArtifactError):
        load_fit(bad)

    # corrupt a stored summary: recomputation must catch the mismatch
    beta_line = next(i for i, ln in enumerate(lines) if ln.startswith("beta "))
    parts = lines[beta_line].split()
    parts[1] = f"{float(parts[1]) + 0.5:.17g}"
    corrupted = lines[:beta_line] + [" ".join(parts)] + lines[beta_line + 1:]
    bad.write_text("\n".join(corrupted) + "\n")
    with pytest.raises(ArtifactError):
        load_fit(bad)

    bad.write_text(text.replace("theta ", "thetaX ", 1))
    with pytest.raises(ArtifactError):
        load_fit(bad)


def _two_event_artifact(tmp_path):
    rng = np.random.default_rng(71)
    prior = default_prior()
    datasets = [make_dataset(rng, 9, event="A1"), make_dataset(rng, 8, event="B2")]
    events = tuple(event_statistics(ds, THETA, prior) for ds in datasets)
    path = tmp_path / "fit.out"
    save_fit(ModelFit(theta=THETA, events=events, prior=prior,
                      log_posterior=-123.5), path)
    return path, path.read_text().splitlines()


def _corrupt_beta(lines, event):
    at = lines.index(next(ln for ln in lines if ln.startswith("event ")
                          and ln.endswith(" " + event))) + 1
    parts = lines[at].split()
    parts[1] = f"{float(parts[1]) + 0.5:.17g}"
    return "\n".join(lines[:at] + [" ".join(parts)] + lines[at + 1:]) + "\n"


def test_partial_load_builds_and_verifies_only_the_requested_events(
        tmp_path, monkeypatch):
    import fieldcal.inference as inf

    path, lines = _two_event_artifact(tmp_path)
    built = []
    real = inf.event_statistics

    def counting(ds, theta, prior):
        built.append(ds.event)
        return real(ds, theta, prior)

    monkeypatch.setattr(inf, "event_statistics", counting)
    part = load_fit(path, events=["B2"])
    assert built == ["B2"] and [ef.event for ef in part.events] == ["B2"]
    # a partial load reports the stored log posterior; a full load
    # recomputes it from every event
    assert part.log_posterior == -123.5
    full = load_fit(path)
    assert built == ["B2", "A1", "B2"]
    assert [ef.event for ef in full.events] == ["A1", "B2"]
    assert full.log_posterior == log_posterior_theta(
        [ef.dataset for ef in full.events], THETA, default_prior())
    np.testing.assert_array_equal(part.event("B2").beta_hat,
                                  full.event("B2").beta_hat)
    with pytest.raises(UnknownEvent):
        load_fit(path, events=["C3"])
    # a bare string is not a collection of ids (it would match substrings)
    with pytest.raises(TypeError, match="events"):
        load_fit(path, events="B2")

    # a corrupt summary is caught on a requested event only
    bad = tmp_path / "bad.out"
    bad.write_text(_corrupt_beta(lines, "A1"))
    with pytest.raises(ArtifactError, match="for event A1"):
        load_fit(bad, events=["A1"])
    with pytest.raises(ArtifactError):
        load_fit(bad)
    assert [ef.event for ef in load_fit(bad, events=["B2"]).events] == ["B2"]

    # every block is still parsed: format errors anywhere fail any load
    for text in ("\n".join(lines[:-3]) + "\n",
                 "\n".join(lines).replace("FIELDCALFIT v1", "FIELDCALFIT v9")):
        bad.write_text(text)
        with pytest.raises(ArtifactError):
            load_fit(bad, events=["A1"])
        with pytest.raises(ArtifactError):
            read_fit(bad)
    # so is an unsupported (cubic) basis, which no event needs to be built
    # to see: validate builds none
    cubic = []
    for ln in lines:
        key = ln.split(" ", 1)[0]
        if key == "prior_q":
            ln = "prior_q 4"
        elif key == "prior_B":
            ln = "prior_B " + " ".join(str(v) for v in np.eye(4).ravel())
        elif key in ("prior_b", "beta"):
            ln += " 0"
        cubic.append(ln)
    bad.write_text("\n".join(cubic) + "\n")
    with pytest.raises(ArtifactError, match="basis_degree"):
        read_fit(bad)


def test_artifact_event_id_keeps_inner_whitespace(tmp_path):
    rng = np.random.default_rng(73)
    prior = default_prior()
    ef = event_statistics(make_dataset(rng, 8, event="storm  one"), THETA, prior)
    path = tmp_path / "fit.out"
    save_fit(ModelFit(theta=THETA, events=(ef,), prior=prior,
                      log_posterior=0.0), path)
    assert [ds.event for ds, _, _ in read_fit(path).events] == ["storm  one"]
    part = load_fit(path, events=["storm  one"])
    assert [ef.event for ef in part.events] == ["storm  one"]
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("event "))
    for head in ("event 8", "event 8 15"):
        path.write_text("\n".join(lines[:at] + [head] + lines[at + 1:]) + "\n")
        with pytest.raises(ArtifactError, match="malformed event line"):
            read_fit(path)


def test_artifact_with_non_finite_theta_is_rejected(tmp_path):
    rng = np.random.default_rng(67)
    prior = default_prior()
    ef = event_statistics(make_dataset(rng, 8), THETA, prior)
    mf = ModelFit(theta=THETA, events=(ef,), prior=prior, log_posterior=0.0)
    path = tmp_path / "fit.out"
    save_fit(mf, path)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("theta "))
    names = ("omega", "lambda2", "phi1", "phi2", "nu1", "nu2", "phiX")
    for field, name in enumerate(names[1:], start=2):
        for token in ("nan", "inf", "-inf"):
            parts = lines[at].split()
            parts[field] = token
            path.write_text("\n".join(lines[:at] + [" ".join(parts)]
                                      + lines[at + 1:]) + "\n")
            with pytest.raises(ArtifactError, match=f"{name} must be finite"):
                load_fit(path)


def test_artifact_with_non_finite_data_is_rejected(tmp_path):
    # each data column is checked when its dataset is built, and the error
    # names it; an infinite coordinate used to be factored as a station
    # correlated with no other, failing only on the stored summaries
    rng = np.random.default_rng(67)
    prior = default_prior()
    ef = event_statistics(make_dataset(rng, 8), THETA, prior)
    path = tmp_path / "fit.out"
    save_fit(ModelFit(theta=THETA, events=(ef,), prior=prior,
                      log_posterior=0.0), path)
    lines = path.read_text().splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.startswith("sigma2 ")) + 3
    for column, name in enumerate(("locations", "locations", "x", "y")):
        for token in ("nan", "inf", "-inf"):
            parts = lines[at].split()
            parts[column] = token
            path.write_text("\n".join(lines[:at] + [" ".join(parts)]
                                      + lines[at + 1:]) + "\n")
            with pytest.raises(ArtifactError, match=f"{name} must be finite"):
                load_fit(path)


def test_artifact_with_non_finite_prior_is_rejected(tmp_path):
    rng = np.random.default_rng(67)
    prior = default_prior()
    ef = event_statistics(make_dataset(rng, 8), THETA, prior)
    path = tmp_path / "fit.out"
    save_fit(ModelFit(theta=THETA, events=(ef,), prior=prior,
                      log_posterior=0.0), path)
    lines = path.read_text().splitlines()
    for key, name in (("prior_b", "b"), ("prior_B", "B"), ("prior_a", "a"),
                      ("prior_d", "d"), ("prior_sigmaY", "sigmaY")):
        at = next(i for i, ln in enumerate(lines) if ln.startswith(key + " "))
        for token in ("nan", "inf"):
            parts = lines[at].split()
            parts[-1] = token
            path.write_text("\n".join(lines[:at] + [" ".join(parts)]
                                      + lines[at + 1:]) + "\n")
            with pytest.raises(ArtifactError,
                               match=f"prior {name} must be finite"):
                read_fit(path)


def test_model_fit_requires_events():
    with pytest.raises(ValueError):
        ModelFit(theta=THETA, events=(), prior=default_prior(),
                 log_posterior=0.0)
