"""Numerical kernels: Bessel K (through the Matern kernel's kv path),
Cholesky variants, Nelder-Mead, the interval quantiles. Expected values
come from closed forms, an independent quadrature oracle, or bisection
against exact CDFs."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import linalg

import fieldcal

from fieldcal.covariance import _matern_kv, _matern_values
from fieldcal.numerics import (
    SYMMETRY_RTOL,
    CholeskyFactor,
    NonFiniteObjective,
    NotPositiveDefinite,
    NotPSD,
    OptimizerOptions,
    _cholesky_in_place,
    cholesky,
    nelder_mead,
    pivoted_cholesky,
    _require_symmetric,
)
from fieldcal.prediction import PosteriorField
from _oracles import (bessel_k_quadrature, nelder_mead_scipy_reference,
                      pivoted_cholesky_reference)

# Frozen oracle outputs (quadrature / bisection, computed once and pinned).
K_03_07 = 0.6895624897569751          # bessel_k_quadrature(0.3, 0.7)
Z_975 = 1.9599639845400536            # normal_quantile_bisect(0.975)
T_975_12 = 2.178812829667259          # t_quantile_bisect(0.975, 12)


def half_integer_k(m, x):
    # K_{m+1/2}(x) has a finite closed form; m in {0, 1, 2} is enough here.
    pref = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
    if m == 0:
        return pref
    if m == 1:
        return pref * (1.0 + 1.0 / x)
    return pref * (1.0 + 3.0 / x + 3.0 / x ** 2)


def bessel_k(nu, x):
    """K_nu(x) recovered from the Matern kernel the library evaluates,
    _matern_kv(x, nu) = 2^(1-nu)/Gamma(nu) x^nu K_nu(x)."""
    x = np.asarray(x, dtype=float)
    k = math.gamma(nu) * 2.0 ** (nu - 1.0) * x ** -nu * _matern_kv(x, nu)
    return float(k) if k.ndim == 0 else k


def test_bessel_half_integer_closed_forms():
    for m, nu in ((0, 0.5), (1, 1.5), (2, 2.5)):
        for x in (0.05, 0.3, 1.0, 4.7, 20.0):
            want = half_integer_k(m, x)
            got = bessel_k(nu, x)
            assert got == pytest.approx(want, rel=1e-12)


def test_bessel_frozen_quadrature_value():
    assert bessel_k(0.3, 0.7) == pytest.approx(K_03_07, rel=1e-10)


def test_bessel_against_live_quadrature():
    # Full lattice is in the acceptance suite; spot-check the corners here.
    for nu, x in ((0.05, 0.001), (0.05, 50.0), (5.0, 0.001), (5.0, 50.0),
                  (1.7, 2.3)):
        want = bessel_k_quadrature(nu, x)
        assert bessel_k(nu, x) == pytest.approx(want, rel=1e-10)


def test_bessel_monotone_in_x():
    xs = np.linspace(0.01, 30.0, 80)
    for nu in (0.05, 0.5, 1.3, 5.0):
        vals = bessel_k(nu, xs)
        assert np.all(np.diff(vals) < 0.0)


def test_bessel_increasing_in_order():
    # For fixed x, K_nu(x) grows with nu >= 0.
    nus = (0.1, 0.5, 1.0, 2.0, 4.0)
    vals = np.array([bessel_k(nu, 1.3) for nu in nus])
    assert np.all(np.diff(vals) > 0.0)


def test_bessel_underflow_returns_zero():
    assert _matern_kv(np.array([800.0]), 0.5)[0] == 0.0
    assert bessel_k(0.5, 800.0) == 0.0


def test_bessel_array_broadcast():
    xs = np.array([0.5, 1.0, 2.0])
    out = bessel_k(1.5, xs)
    assert out.shape == (3,)
    for i, x in enumerate(xs):
        assert out[i] == pytest.approx(bessel_k(1.5, float(x)), rel=1e-14)


def test_cholesky_identity_and_diagonal():
    f = cholesky(np.eye(3))
    np.testing.assert_allclose(f.lower, np.eye(3), atol=1e-15)
    assert f.logdet == pytest.approx(0.0, abs=1e-14)
    f = cholesky(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(f.lower, np.diag([2.0, 3.0]), atol=1e-15)
    assert f.logdet == pytest.approx(math.log(36.0), rel=1e-14)


def test_cholesky_random_spd_reconstruction_and_solve():
    rng = np.random.default_rng(7)
    for n in (2, 5, 40, 300):
        m = rng.normal(size=(n, n))
        a = m @ m.T + n * np.eye(n)
        f = cholesky(a)
        assert isinstance(f, CholeskyFactor)
        np.testing.assert_allclose(f.lower @ f.lower.T, a,
                                   rtol=1e-10, atol=1e-8)
        sign, logdet = np.linalg.slogdet(a)
        assert sign > 0
        assert f.logdet == pytest.approx(logdet, rel=1e-10)
        b = rng.normal(size=n)
        np.testing.assert_allclose(f.solve(b), np.linalg.solve(a, b),
                                   rtol=1e-8, atol=1e-10)
        # matrix right-hand side goes through the same triangular path
        bm = rng.normal(size=(n, 3))
        np.testing.assert_allclose(f.solve(bm), np.linalg.solve(a, bm),
                                   rtol=1e-8, atol=1e-10)


def test_cholesky_rejects_bad_input():
    with pytest.raises(ValueError):
        cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        cholesky(np.ones((2, 3)))
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
    with pytest.raises(NotPositiveDefinite):
        cholesky(np.array([[0.0, 0.0], [0.0, -1.0]]))  # jitter scale <= 0


def _symmetric(m, seed):
    g = np.random.default_rng(seed).normal(size=(m, m))
    return g + g.T


def test_asymmetry_in_the_last_band_raises():
    # the check runs in bands of 65 rows at m = 1000; the last holds rows
    # 975-999, and an entry there exceeding its mirror is found
    a = _symmetric(1000, 21)
    scale = np.abs(a).max()
    assert _require_symmetric(a, "a") is not a          # exactly symmetric
    a[995, 3] += 0.5 * SYMMETRY_RTOL * scale
    assert _require_symmetric(a, "a") is a              # within tolerance
    a[995, 3] += 2.0 * SYMMETRY_RTOL * scale
    with pytest.raises(ValueError, match="not symmetric"):
        _require_symmetric(a, "a")
    with pytest.raises(ValueError, match="not symmetric"):
        cholesky(a)


def test_symmetry_check_makes_no_matrix_sized_temporary():
    a = _symmetric(1000, 22)
    tracemalloc.start()
    try:
        _require_symmetric(a, "a")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * a.nbytes


def test_cholesky_jitter_rescues_singular_psd():
    a = np.ones((3, 3))  # rank one, plain factorization fails
    f = cholesky(a)
    np.testing.assert_allclose(f.lower @ f.lower.T, a, atol=1e-7)
    # the factor records the jitter, 1e-8 * trace / n, and a is untouched
    assert f.jitter == pytest.approx(1e-8, rel=1e-15)
    np.testing.assert_array_equal(a, np.ones((3, 3)))
    assert cholesky(np.eye(3)).jitter == 0.0


def test_in_place_factor_is_the_built_buffer():
    # the private entry point factors the buffer build() returns, reading
    # only its diagonal and upper triangle (NaN below is never seen); the
    # jitter retry factors a second build, as the first is overwritten
    spd = _symmetric(6, 23) + 20.0 * np.eye(6)
    for a, builds in ((spd, 1), (np.ones((6, 6)), 2)):
        built = []

        def build():
            built.append(np.triu(a) + np.tril(np.full(a.shape, np.nan), -1))
            return built[-1]

        got, want = _cholesky_in_place(build), cholesky(a)
        assert len(built) == builds
        assert np.array_equal(got.lower.view(np.uint64),
                              want.lower.view(np.uint64))
        assert (got.logdet, got.jitter) == (want.logdet, want.jitter)
        assert np.shares_memory(got.lower, built[-1]) == (builds == 1)
    with pytest.raises(NotPositiveDefinite, match="even after jitter"):
        _cholesky_in_place(lambda: np.array([[1.0, 2.0], [np.nan, 1.0]]))


def test_cholesky_and_solves_match_scipy_bit_for_bit():
    # the direct dpotrf / dtrtrs calls are the ones scipy's wrappers make
    rng = np.random.default_rng(5)
    for n in (3, 200):
        m = rng.normal(size=(n, n))
        a = m @ m.T + n * np.eye(n)
        f = cholesky(a)
        want = linalg.cholesky(a, lower=True)
        np.testing.assert_array_equal(f.lower, want)
        assert f.lower.flags.f_contiguous
        assert f.logdet == 2.0 * float(np.sum(np.log(np.diag(want))))
        for b in (rng.normal(size=n), rng.normal(size=(n, 4)),
                  np.asfortranarray(rng.normal(size=(n, 3)))):
            w = linalg.solve_triangular(want, b, lower=True)
            np.testing.assert_array_equal(f.solve_lower(b), w)
            x = linalg.solve_triangular(want.T, w, lower=False)
            np.testing.assert_array_equal(f.solve_upper(w), x)
            np.testing.assert_array_equal(f.solve(b), x)


def test_non_finite_input_raises_value_error():
    f = cholesky(np.diag([4.0, 9.0, 1.0]))
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((1, 1), (0, 2)):
            a = np.eye(3)
            a[i, j] = bad
            for factor in (cholesky, pivoted_cholesky):
                with pytest.raises(ValueError, match="infs or NaNs"):
                    factor(a)
        b = np.array([1.0, bad, 2.0])
        for solve in (f.solve, f.solve_lower, f.solve_upper):
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(b)
            with pytest.raises(ValueError, match="infs or NaNs"):
                solve(np.column_stack([b, b]))
    with pytest.raises(ValueError, match="incompatible"):
        f.solve(np.ones(4))


def test_cholesky_empty_matrix():
    f = cholesky(np.zeros((0, 0)))
    assert f.lower.shape == (0, 0) and f.logdet == 0.0
    assert f.solve(np.zeros(0)).shape == (0,)
    assert f.solve(np.zeros((0, 2))).shape == (0, 2)


def _run_fresh(script):
    """stdout of ``script`` run by a fresh interpreter on this fieldcal."""
    src = os.path.dirname(os.path.dirname(fieldcal.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True,
        text=True, check=True).stdout.strip()


def test_import_leaves_the_optimizer_out():
    assert _run_fresh(_SEARCH_AND_FIT) == "False"


def test_pipeline_leaves_scipy_spatial_and_sparse_out():
    # lags come from numpy; a fresh process because the oracle tests
    # here load scipy.spatial
    assert _run_fresh(_PIPELINE) == "[]"


# imports the package and the CLI, runs a search and a small fit, and
# prints whether any of it loaded scipy.optimize
_SEARCH_AND_FIT = """
import sys
import numpy as np
import fieldcal, fieldcal.cli
from fieldcal import inference, numerics
from fieldcal.dataio import EventDataset
numerics.nelder_mead(lambda x: float(np.sum(x ** 2)), np.ones(3),
                     numerics.OptimizerOptions(max_evals=50))
rng = np.random.default_rng(5)
x = rng.uniform(16, 40, size=12)
ds = EventDataset("ev", rng.uniform(0, 8, size=(12, 2)), x,
                  np.abs(0.8 * x + rng.normal(0, 4, size=12)), threshold=15.0)
inference.fit([ds], inference.default_prior(),
              numerics.OptimizerOptions(max_evals=20))
print('scipy.optimize' in sys.modules)
"""

# a small fit, a grid prediction, a full-covariance posterior with draws
# and a semivariogram; prints the scipy.spatial and scipy.sparse modules
# loaded
_PIPELINE = """
import sys
import numpy as np
import fieldcal, fieldcal.cli
from fieldcal import inference, numerics
from fieldcal.dataio import EventDataset, GridField
from fieldcal.diagnostics import semivariogram
from fieldcal.prediction import posterior_field, predict_grid, sample_field
rng = np.random.default_rng(5)
x = rng.uniform(16, 40, size=12)
ds = EventDataset("ev", rng.uniform(0, 8, size=(12, 2)), x,
                  np.abs(0.8 * x + rng.normal(0, 4, size=12)), threshold=15.0)
mf = inference.fit([ds], inference.default_prior(),
                   numerics.OptimizerOptions(max_evals=20))
grid = GridField(event="ev", n1=4, n2=5, origin=(0.0, 0.0),
                 spacing=(2.0, 1.6), values=rng.uniform(16, 40, size=(4, 5)))
predict_grid(mf, "ev", grid)
pf = posterior_field(mf, "ev", (rng.uniform(0, 8, size=(6, 2)),
                                rng.uniform(16, 40, size=6)), full_cov=True)
sample_field(pf, 3, seed=1)
semivariogram(mf, "ev", "h1", 3, reps=5)
print(sorted(m for m in sys.modules
             if m.startswith(("scipy.spatial", "scipy.sparse"))))
"""


def test_pivoted_identity_and_diagonal():
    f = pivoted_cholesky(np.eye(2))
    assert f.rank == 2
    np.testing.assert_allclose(f.upper, np.eye(2), atol=1e-15)
    f = pivoted_cholesky(np.diag([1.0, 4.0]))
    # largest diagonal entry is pivoted first
    assert list(f.permutation) == [1, 0]
    np.testing.assert_allclose(f.upper, np.diag([2.0, 1.0]), atol=1e-15)


def test_pivoted_reconstruction_random_psd():
    rng = np.random.default_rng(11)
    for n in (2, 6, 25):
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.5 * np.eye(n)
        f = pivoted_cholesky(a)
        assert f.rank == n
        p = f.permutation
        np.testing.assert_allclose(f.upper.T @ f.upper, a[np.ix_(p, p)],
                                   rtol=1e-9, atol=1e-9)


def test_pivoted_detects_low_rank():
    rng = np.random.default_rng(3)
    b = rng.normal(size=(5, 2))
    a = b @ b.T  # rank two
    f = pivoted_cholesky(a)
    assert f.rank == 2
    p = f.permutation
    np.testing.assert_allclose(f.upper.T @ f.upper, a[np.ix_(p, p)],
                               rtol=1e-9, atol=1e-9)


def test_pivoted_rejects_indefinite():
    with pytest.raises(NotPSD):
        pivoted_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_pivoted_pivot_sequence_non_increasing():
    rng = np.random.default_rng(19)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.1 * np.eye(n)
        f = pivoted_cholesky(a)
        d = np.diag(f.upper)[:f.rank]
        assert np.all(np.diff(d) <= 1e-12)


def test_pivoted_decorrelate_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        m = rng.normal(size=(n, n))
        a = m @ m.T + 0.3 * np.eye(n)
        f = pivoted_cholesky(a)
        # dpstrf's Fortran order, which dtrtrs reads without a copy
        assert f.upper.flags.f_contiguous
        g = np.zeros((n, f.upper.shape[0]))
        g[f.permutation, :] = f.upper.T
        r = rng.normal(size=n)
        z = f.decorrelate(r)
        np.testing.assert_allclose(g @ z, r, rtol=1e-9, atol=1e-9)
        # whitening: cov(z) = I when r ~ N(0, a)
        np.testing.assert_allclose(g @ g.T, a, rtol=1e-9, atol=1e-9)


def test_pivoted_decorrelate_requires_full_rank():
    b = np.ones((3, 1))
    f = pivoted_cholesky(b @ b.T)
    with pytest.raises(NotPSD):
        f.decorrelate(np.array([1.0, 2.0, 3.0]))


def _pivoted_reference_cases():
    rng = np.random.default_rng(31)
    for n in (1, 2, 6, 25, 300):
        m = rng.normal(size=(n, n))
        yield f"spd{n}", m @ m.T + 0.5 * np.eye(n)
    for n in (40, 300):
        pts = rng.uniform(0.0, 10.0, size=(n, 2))
        h = np.hypot(*(pts[:, None, :] - pts[None, :, :]).transpose(2, 0, 1))
        yield f"exp{n}", np.exp(-h / 3.0) + 1e-6 * np.eye(n)
    for r in (2, 3):
        b = rng.normal(size=(8, r))
        yield f"rank{r}", b @ b.T
    # residual pivots near 1e-13 * max diag: below the 1e-10 rank cut but
    # above LAPACK's default n * eps * max diag
    b, c = rng.normal(size=(8, 2)), rng.normal(size=(8, 8))
    yield "rank2+tiny", b @ b.T + 1e-13 * (c @ c.T)
    yield "ones", np.ones((3, 3))
    yield "zeros", np.zeros((3, 3))
    yield "empty", np.zeros((0, 0))


def test_pivoted_matches_reference_loop():
    # Tolerance, fixed before comparing: pivots and rank identical to the
    # step-by-step loop; factor entries within 1e-12 * max diag absolute.
    for name, a in _pivoted_reference_cases():
        got = pivoted_cholesky(a)
        want = pivoted_cholesky_reference(a)
        assert got.rank == want.rank, name
        np.testing.assert_array_equal(got.permutation, want.permutation,
                                      err_msg=name)
        assert got.upper.shape == want.upper.shape, name
        scale = max(float(np.max(np.diag(a))), 0.0) if len(a) else 0.0
        np.testing.assert_allclose(got.upper, want.upper, rtol=0.0,
                                   atol=1e-12 * scale, err_msg=name)
    # After pivoting on 4, index 1 is left with 1 - 16/4 = -3 while the
    # positive pivot 2 is still available: the loop raises at its next
    # step, and dpstrf alone would carry on past it.
    a = np.array([[4.0, 4.0, 0.0], [4.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    with pytest.raises(NotPSD):
        pivoted_cholesky_reference(a)
    with pytest.raises(NotPSD):
        pivoted_cholesky(a)


def test_nelder_mead_quadratic():
    target = np.array([1.5, -2.0])

    def obj(x):
        return float(np.sum((x - target) ** 2))

    res = nelder_mead(obj, np.zeros(2), OptimizerOptions(max_evals=2000))
    np.testing.assert_allclose(res.x, target, atol=1e-4)
    assert res.fun < 1e-7
    assert 0 < res.evaluations < 2000 and not res.budget_exhausted


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    res = nelder_mead(rosen, np.array([-1.2, 1.0]),
                      OptimizerOptions(max_evals=5000))
    assert res.fun < 1e-6
    np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-2)


def test_nelder_mead_never_worse_than_start():
    def obj(x):
        return 3.25

    res = nelder_mead(obj, np.array([0.7]), OptimizerOptions(max_evals=5))
    assert res.fun == pytest.approx(3.25)


def test_nelder_mead_returns_its_lowest_evaluation():
    # out of budget, scipy can stop before taking in a last reflection
    # that beat the whole simplex; the search still returns that point
    weights, target = np.array([1.0, 3.0, 10.0]), np.array([1.0, -2.0, 0.5])
    seen = []

    def obj(x):
        seen.append((float(np.sum(weights * (x - target) ** 2)), x.copy()))
        return seen[-1][0]

    for max_evals in (5, 10, 15, 21):
        seen.clear()
        res = nelder_mead(obj, np.zeros(3), OptimizerOptions(max_evals=max_evals))
        low_f, low_x = min(seen, key=lambda fx: fx[0])
        assert res.fun == low_f and res.budget_exhausted
        np.testing.assert_array_equal(res.x, low_x)


def test_nelder_mead_restarts_deterministic():
    def bumpy(x):
        return float(np.sum(x ** 2) + 2.0 * np.sin(5.0 * x[0]))

    opts = OptimizerOptions(max_evals=800, restarts=4, seed=42)
    r1 = nelder_mead(bumpy, np.array([3.0, -1.0]), opts)
    r2 = nelder_mead(bumpy, np.array([3.0, -1.0]), opts)
    np.testing.assert_array_equal(r1.x, r2.x)
    assert r1.fun == r2.fun
    assert r1.evaluations == r2.evaluations
    # restarts can only improve on the single-start answer
    single = nelder_mead(bumpy, np.array([3.0, -1.0]),
                         OptimizerOptions(max_evals=800, restarts=1, seed=42))
    assert r1.fun <= single.fun + 1e-12
    assert r1.evaluations > single.evaluations


def test_nelder_mead_rejects_non_finite_start():
    with pytest.raises(NonFiniteObjective):
        nelder_mead(lambda x: math.inf, np.zeros(1), OptimizerOptions())
    with pytest.raises(NonFiniteObjective):
        nelder_mead(lambda x: math.nan, np.zeros(1), OptimizerOptions())


def test_nelder_mead_handles_nan_region():
    # NaN away from the start must not corrupt the search.
    def obj(x):
        if x[0] < -1.0:
            return math.nan
        return float((x[0] - 0.5) ** 2)

    res = nelder_mead(obj, np.array([2.0]), OptimizerOptions(max_evals=500))
    assert res.x[0] == pytest.approx(0.5, abs=1e-3)


def test_nelder_mead_evaluates_the_start_once_and_counts_every_call():
    # the start's value also serves the first simplex vertex; evaluations
    # counts the objective's calls, and a search cut by max_evals says so
    x0 = np.array([0.3, -0.2, 1.1])
    for max_evals, exhausted in ((15, True), (5000, False)):
        calls = []

        def obj(x):
            calls.append(np.array(x))
            return float(np.sum((x - 1.0) ** 2))

        res = nelder_mead(obj, x0, OptimizerOptions(
            max_evals=max_evals, simplex_tolerance=1e-6))
        assert sum(np.array_equal(c, x0) for c in calls) == 1
        assert res.evaluations == len(calls)
        assert res.budget_exhausted is exhausted
    assert len(calls) < 5000


def _rosenbrock(x):
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2
                        + (1.0 - x[:-1]) ** 2))


def _walled(x):   # minimum just inside a box of +inf, as theta bounds give
    return math.inf if np.any(np.abs(x) > 1.0) else float(np.sum((x - 0.9) ** 2))


def _nan_region(x):
    if x[0] < -1.0:
        return math.nan
    return float((x[0] - 0.5) ** 2 + (x[1] + 0.3) ** 2)


def _terraces(x):   # flat steps: ties in the simplex and in its tests
    return float(np.floor(4.0 * np.sum((x - [1.0, -2.0, 0.5]) ** 2)) / 4.0)


SEARCH_CASES = (
    (lambda x: float(np.sum([1.0, 3.0, 10.0] * (x - [1.0, -2.0, 0.5]) ** 2)),
     np.zeros(3)),
    (_rosenbrock, np.array([-1.2, 1.0])),
    (_rosenbrock, np.array([-1.2, 1.0, -1.2, 1.0, -1.2, 1.0, -1.2])),
    (_walled, np.zeros(7)),
    (_nan_region, np.array([2.0, 1.0])),
    (lambda x: math.inf if x[0] < -0.5 else float((x[0] + 1.0) ** 2),
     np.array([0.5])),
    (_terraces, np.zeros(3)),
)


def test_nelder_mead_matches_scipy_bit_for_bit():
    # the in-house loop evaluates the points scipy 1.17.1's Nelder-Mead
    # evaluates, in order and to the bit, and ends its restarts as scipy
    # does: budgets that cut the initial simplex, the first iteration and
    # later ones, restarts, both tolerances, NaN and +inf values, ties
    def bits(a):
        return np.asarray(a, dtype=float).tobytes()

    for objective, x0 in SEARCH_CASES:
        n = len(x0)
        for max_evals in sorted({1, n, n + 1, n + 2, 15, 200, 5000}):
            for tol in (1e-8, 1e-3):
                for restarts in (1, 3):
                    opts = OptimizerOptions(max_evals=max_evals, restarts=restarts,
                                            simplex_tolerance=tol, seed=3)
                    seen = {"ours": [], "scipy": []}
                    results = {}
                    for side, search in (("ours", nelder_mead),
                                         ("scipy", nelder_mead_scipy_reference)):
                        def recorded(x, out=seen[side]):
                            out.append(bits(x))
                            return objective(x)
                        results[side] = search(recorded, x0, opts)
                    case = (n, max_evals, tol, restarts)
                    ours, ref = results["ours"], results["scipy"]
                    assert seen["ours"] == seen["scipy"], case
                    assert bits(ours.x) == bits(ref.x), case
                    assert bits(ours.fun) == bits(ref.fun), case
                    assert ours.evaluations == ref.evaluations == len(seen["ours"]), case
                    assert ours.budget_exhausted is ref.budget_exhausted, case
                    assert ours.rejected == ref.rejected, case


def test_nelder_mead_counts_rejected_evaluations():
    # +inf and NaN values are rejections, and finite ones are not: from
    # a start beside a NaN region the search walks to a wall of +inf
    values = []

    def obj(x):
        v = (math.inf if x[0] < -0.5 else math.nan if x[0] > 3.0
             else float((x[0] + 1.0) ** 2))
        values.append(v)
        return v

    res = nelder_mead(obj, np.array([2.9]), OptimizerOptions(max_evals=60))
    assert math.inf in values and any(math.isnan(v) for v in values)
    assert res.rejected == sum(not v < math.inf for v in values)
    assert res.x[0] == pytest.approx(-0.5, abs=1e-4)
    res = nelder_mead(lambda x: float(np.sum(x ** 2)), np.ones(2),
                      OptimizerOptions(max_evals=60))
    assert res.rejected == 0


def test_optimizer_options_validation():
    with pytest.raises(ValueError):
        OptimizerOptions(max_evals=0)
    for tol in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="simplex_tolerance must be finite and > 0"):
            OptimizerOptions(simplex_tolerance=tol)
    with pytest.raises(ValueError):
        OptimizerOptions(restarts=0)


def interval_quantile(level, law, df=20):
    """The quantile PosteriorField.interval used for a central ``level``
    interval: its half-width over sd, after checking that the interval is
    symmetric about the mean."""
    pf = PosteriorField(event="e", locations=np.zeros((1, 2)),
                        intensities=np.array([20.0]),
                        mean=np.array([10.0]), variance=np.array([4.0]),
                        covariance=None, df=df, space="actual_field")
    lo, hi = pf.interval(level, law=law)
    assert 10.0 - lo[0] == pytest.approx(hi[0] - 10.0, abs=1e-12)
    return (hi[0] - 10.0) / 2.0


def test_normal_quantile():
    assert interval_quantile(0.95, "gauss") == pytest.approx(Z_975, abs=1e-12)
    # round trip through the exact CDF; level = 2p - 1 puts p at the upper end
    for p in (0.5 + 1e-9, 0.6, 0.77, 0.9, 0.999):
        q = interval_quantile(2.0 * p - 1.0, "gauss")
        cdf = 0.5 * (1.0 + math.erf(q / math.sqrt(2.0)))
        assert cdf == pytest.approx(p, abs=1e-12)
    for level in (0.0, 1.0):
        with pytest.raises(ValueError):
            interval_quantile(level, "gauss")


def test_t_quantile():
    # abs 1e-10 covers the bisection oracle's own quadrature resolution
    assert interval_quantile(0.95, "t", df=12) == pytest.approx(T_975_12,
                                                                abs=1e-10)
    # heavy tails relative to the normal
    for df in (3, 12, 40):
        assert (interval_quantile(0.8, "t", df=df)
                > interval_quantile(0.8, "gauss"))
    # large df converges to the normal quantile
    assert interval_quantile(0.95, "t", df=10 ** 6) == pytest.approx(
        Z_975, abs=1e-4)
    with pytest.raises(ValueError):
        interval_quantile(1.2, "t", df=5)


def test_no_warnings_in_normal_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _matern_values(np.array([0.0, 3.0]), 2.0, 1.5)
        _matern_values(np.array([0.0, 3.0]), 2.0, 1.2)
        cholesky(np.eye(4))
