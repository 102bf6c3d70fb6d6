"""Rotation, the Matern kernel, and the composite correlation model with
its nugget rule."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.spatial.distance import pdist, squareform
from scipy.special import kv

from _oracles import (matern_piece_nodes_reference,
                      matern_table_direct_reference,
                      smooth_correlation_scipy_reference)

from fieldcal import covariance
from fieldcal.covariance import (
    _CHUNK,
    _COARSE_BITS,
    _DEGREE,
    _P0,
    _PIECE_BITS,
    _U_LOW,
    _correlation_upper,
    _matern_interpolated,
    _matern_table,
    _matern_values,
    NU_BOUNDS,
    Hyperparameters,
    correlation_block,
    correlation_matrix_arrays,
    pair_lags,
    rotate_array,
    smooth_correlation,
)

THETA = Hyperparameters(omega=0.3, lambda2=0.36, phi1=2.0, phi2=1.5,
                        nu1=1.2, nu2=0.7, phiX=8.0)


def random_theta(rng):
    return Hyperparameters(
        omega=float(rng.uniform(-math.pi / 2 + 0.01, math.pi / 2)),
        lambda2=float(rng.uniform(0.0, 1.5)),
        phi1=float(rng.uniform(0.3, 6.0)),
        phi2=float(rng.uniform(0.3, 6.0)),
        nu1=float(rng.uniform(0.1, 4.0)),
        nu2=float(rng.uniform(0.1, 4.0)),
        phiX=float(rng.uniform(1.0, 20.0)),
    )


def matern(h, phi, nu):
    """The Matern kernel at one scalar lag."""
    return float(_matern_values(np.array([h]), phi, nu)[0])


def product_kernel(th, pa, xa, pb, xb):
    """Matern x Matern x Gaussian at one pair of records, factor by factor."""
    d = (xa - xb) / th.phiX
    return (matern(abs(pa[0] - pb[0]), th.phi1, th.nu1)
            * matern(abs(pa[1] - pb[1]), th.phi2, th.nu2)
            * math.exp(-d * d))


def intensity_only(th, x, x_prime):
    """The correlation of two records at one location: both Matern
    factors are exactly 1, leaving the Gaussian intensity kernel."""
    return correlation_block(th, [[1.0, 2.0]], [x], [[1.0, 2.0]], [x_prime])[0, 0]


def test_hyperparameters_validation():
    good = dict(omega=0.0, lambda2=0.1, phi1=1, phi2=1, nu1=1, nu2=1, phiX=1)
    Hyperparameters(**good)
    with pytest.raises(ValueError):
        Hyperparameters(**{**good, "omega": 2.0})
    with pytest.raises(ValueError):
        Hyperparameters(**{**good, "lambda2": -0.1})
    with pytest.raises(ValueError):
        Hyperparameters(**{**good, "phi1": 0.0})
    # no field may be NaN or infinite
    for name in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                Hyperparameters(**{**good, name: bad})
    # boundary: omega = pi/2 allowed, -pi/2 not
    Hyperparameters(**{**good, "omega": math.pi / 2, "lambda2": 0})
    with pytest.raises(ValueError):
        Hyperparameters(**{**good, "omega": -math.pi / 2, "lambda2": 0})


def test_rotation_identity_at_zero():
    np.testing.assert_array_equal(rotate_array([[3.7, -1.2]], 0.0),
                                  [[3.7, -1.2]])


def test_rotation_quarter_turn():
    p = rotate_array([[1.0, 0.0]], math.pi / 2)
    assert p.shape == (1, 2)
    assert p[0, 0] == pytest.approx(0.0, abs=1e-15)
    assert p[0, 1] == pytest.approx(1.0, rel=1e-15)


def test_rotation_direct_formula():
    w = 0.3
    p = rotate_array([[2.0, 5.0]], w)[0]
    assert p[0] == pytest.approx(math.cos(w) * 2.0 - math.sin(w) * 5.0,
                                 rel=1e-14)
    assert p[1] == pytest.approx(math.sin(w) * 2.0 + math.cos(w) * 5.0,
                                 rel=1e-14)


def test_rotation_preserves_norm_and_matches_array():
    rng = np.random.default_rng(5)
    for _ in range(25):
        w = float(rng.uniform(-1.5, 1.5))
        pts = rng.normal(scale=10.0, size=(6, 2))
        out = rotate_array(pts, w)
        np.testing.assert_allclose(np.linalg.norm(out, axis=1),
                                   np.linalg.norm(pts, axis=1), rtol=1e-12)
        for i in range(6):
            p = rotate_array(pts[i:i + 1], w)[0]
            assert p[0] == pytest.approx(out[i, 0], abs=1e-12)
            assert p[1] == pytest.approx(out[i, 1], abs=1e-12)


def test_matern_domain_errors():
    # the kernels' ranges and smoothness are checked where they are set
    good = dict(omega=0.0, lambda2=0.1, phi1=1, phi2=1, nu1=1, nu2=1, phiX=1)
    for name in ("phi1", "phi2", "nu1", "nu2", "phiX"):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=f"{name} must be > 0"):
                Hyperparameters(**{**good, name: bad})
    # kv loses accuracy above about 130, and from 172 Gamma(nu)
    # overflows; 100 is the checked limit
    for name in ("nu1", "nu2"):
        Hyperparameters(**{**good, name: 100.0})
        for bad in (100.5, 200.0, 1e4):
            with pytest.raises(ValueError, match=f"{name} must be <= 100"):
                Hyperparameters(**{**good, name: bad})


def test_matern_zero_lag_is_one():
    for nu in (0.05, 0.5, 1.5, 7.0, 30.0):
        assert matern(0.0, 1.7, nu) == 1.0


def test_matern_exponential_special_case():
    # nu = 1/2 collapses to exp(-h/phi)
    for h in (0.1, 0.9, 3.4):
        for phi in (0.5, 2.0):
            assert matern(h, phi, 0.5) == pytest.approx(
                math.exp(-h / phi), rel=1e-12)


def test_matern_closed_forms():
    # nu = 3/2: (1+z) e^{-z} with z = sqrt(3) h / phi
    z = math.sqrt(3.0)
    assert matern(1.0, 1.0, 1.5) == pytest.approx((1 + z) * math.exp(-z),
                                                  rel=1e-12)
    assert matern(1.0, 1.0, 1.5) == pytest.approx(0.4833577245965078,
                                                  rel=1e-12)
    # nu = 5/2: (1 + z + z^2/3) e^{-z} with z = sqrt(5) h / phi
    for h, phi in ((1.0, 1.0), (2.0, 1.5)):
        z = math.sqrt(5.0) * h / phi
        want = (1.0 + z + z * z / 3.0) * math.exp(-z)
        assert matern(h, phi, 2.5) == pytest.approx(want, rel=1e-12)


def test_matern_strictly_decreasing():
    hs = np.linspace(0.0, 12.0, 120)
    for nu in (0.1, 0.5, 1.5, 6.0):
        vals = _matern_values(hs, 2.0, nu)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)


def test_matern_gaussian_limit():
    # large nu tends to exp(-h^2 / (2 phi^2)); 2% at nu = 50
    for h in (0.3, 0.8, 1.5):
        lim = math.exp(-h * h / 2.0)
        assert matern(h, 1.0, 50.0) == pytest.approx(lim, rel=0.02)


def test_matern_extreme_smoothness_stable():
    vals = _matern_values(np.linspace(0, 5, 50), 1.0, 30.0)
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def _matern_kv_reference(h, phi, nu):
    # the formula every fast path is gated against, straight from kv:
    # overflow at tiny z means ~1, 0*inf far in the tail means ~0
    z = (math.sqrt(2.0 * nu) / phi) * np.asarray(h, dtype=float)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        out = 2.0 ** (1.0 - nu) / math.gamma(nu) * z ** nu * kv(nu, z)
    out[~np.isfinite(out) & (z < 1.0)] = 1.0
    out[~np.isfinite(out)] = 0.0
    return np.clip(out, 0.0, 1.0)


def test_matern_matches_kv_reference():
    lo, hi = NU_BOUNDS
    half = (0.5, 1.5, 2.5)
    nus = np.concatenate([
        np.geomspace(lo, hi, 61), [0.999, 1.0, 1.001, 2.0], half,
        [np.nextafter(v, d) for v in half for d in (0.0, 10.0)]])
    # lags as multiples of z: zero, below 1e-6, and on past where kv
    # underflows
    base_z = np.concatenate([[0.0, 1e-300, 1e-12, 1e-8, 9e-7],
                             np.geomspace(1e-7, 800.0, 4000)])
    # every piece edge from an octave below the band to past its top for
    # any nu, each exactly and one float below; at phi = sqrt(2 nu) the
    # kernel's scale is exactly 1, so these lags are z bit for bit
    edges = ((_P0 + np.arange(-128, 3200)) << _PIECE_BITS).view(np.float64)
    assert edges[128] <= math.exp(_U_LOW) < edges[129] and edges[-1] > 150.0
    edge_z = np.concatenate([edges, np.nextafter(edges, 0.0)])
    phi = 1.7
    worst = 0.0
    for nu in nus:
        # the band's upper edge depends on nu
        top = max(45.0, 2.0 * nu + 45.0)
        z = np.concatenate([base_z, [top * (1 - 1e-12), top * (1 + 1e-12)]])
        h = z * phi / math.sqrt(2.0 * nu)
        got = _matern_values(h, phi, nu)
        worst = max(worst, np.max(np.abs(got - _matern_kv_reference(h, phi, nu))))
        assert got[0] == 1.0
        assert np.all(_matern_values(np.zeros((2, 3)), phi, nu) == 1.0)
        unit = math.sqrt(2.0 * nu)
        got = _matern_values(edge_z, unit, nu)
        worst = max(worst, np.max(np.abs(
            got - _matern_kv_reference(edge_z, unit, nu))))
    assert worst <= 1e-12


def test_matern_kv_fallback_where_kv_overflows():
    # from nu ~ 40 kv overflows at lags where f is not yet 1 in double
    # precision (at nu = 100, below z = 0.066); on both sides of that
    # edge the kernel must follow f's series, sum_k (-q)^k / (k!
    # (nu-1)...(nu-k)) with q = z^2/4, here to 8 terms
    z = np.geomspace(1e-4, 0.5, 2000)
    for nu in (45.0, 60.0, 100.0):
        term, series = np.ones(z.size), np.ones(z.size)
        for k in range(1, 8):
            term *= -0.25 * z ** 2 / (k * (nu - k))
            series += term
        got = _matern_values(z, math.sqrt(2.0 * nu), nu)
        assert np.max(np.abs(got - series)) <= 1e-12, nu


def test_matern_non_finite_lags():
    # NaN stays NaN on every path (tabulated, closed form, kv) and +inf
    # gives 0; a NaN lag never yields a finite value
    h = np.array([1.0, np.nan, np.inf, 0.0, np.nan])
    for nu in (0.8, 1.2, 0.5, 1.5, 2.5, 0.01, 40.0):
        got = _matern_values(h, 2.0, nu)
        assert np.isnan(got[[1, 4]]).all()
        assert got[2] == 0.0 and got[3] == 1.0
        assert np.isfinite(got[[0, 2, 3]]).all()
    lags = np.where(np.arange(2000) % 7 == 3, np.nan,
                    np.geomspace(1e-9, 300.0, 2000))
    got = _matern_values(lags, 1.3, 1.2)
    np.testing.assert_array_equal(np.isnan(got), np.isnan(lags))


def test_matern_blocks_are_independent():
    # lags spanning more than 3 evaluation blocks give, bit for bit, what
    # each block gives on its own
    rng = np.random.default_rng(5)
    h = rng.uniform(0.0, 80.0, 3 * _CHUNK + 1234)
    h[::997] = 0.0
    for nu in (1.2, 1.5, 40.0):
        whole = _matern_values(h, 3.0, nu)
        parts = [_matern_values(h[i:i + _CHUNK], 3.0, nu)
                 for i in range(0, h.size, _CHUNK)]
        assert len(parts) == 4
        np.testing.assert_array_equal(whole, np.concatenate(parts))


def test_matern_table_is_cached_and_read_only():
    _matern_table.cache_clear()
    table = _matern_table(1.2)
    assert _matern_table(1.2) is table
    assert _matern_table(0.8) is not table
    assert _matern_table.cache_info().hits == 1
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0
    # one column per piece, from the one holding e^_U_LOW to the one
    # holding the band's top, 2 nu + 45 = 47.4
    top = int(np.float64(47.4).view(np.int64))
    assert table.shape == (_DEGREE + 1, (top >> _PIECE_BITS) - _P0 + 1)


def test_matern_in_band_lags_never_call_kv(monkeypatch):
    calls = []

    def kv_spy(z, nu):
        calls.append(z.copy())
        return np.zeros(z.shape)

    nu = 1.2
    _matern_table(nu)
    monkeypatch.setattr(covariance, "_matern_kv", kv_spy)
    # at phi = sqrt(2 nu) the lags are z; the band is [e^-12, 47.4]
    band = np.geomspace(math.exp(_U_LOW), 47.4, 3 * _CHUNK)
    _matern_values(band, math.sqrt(2.0 * nu), nu)
    assert calls == []
    # lags past the band's top, or below its bottom, reach kv alone
    for lags, outside in (([1.0, 60.0, np.nan, np.inf], [60.0, np.nan, np.inf]),
                          ([0.0, 1.0, 1e-6], [0.0, 1e-6])):
        calls.clear()
        _matern_values(np.array(lags), math.sqrt(2.0 * nu), nu)
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], outside)


def _edge_nus():
    """The nu in NU_BOUNDS whose band top 2 nu + 45 is a coarse piece edge
    (1.5, 3.5, ..., 29.5), and one float either side of each."""
    lo, hi = NU_BOUNDS
    coarse = np.float64(45.0).view(np.int64) >> _COARSE_BITS
    tops = (np.arange(coarse, coarse + 12) << _COARSE_BITS).view(np.float64)
    edge_nus = [float(v) for v in 0.5 * (tops - 45.0) if lo <= v <= hi]
    assert edge_nus[0] == 1.5 and edge_nus[-1] == 29.5
    return [v for nu in edge_nus
            for v in (np.nextafter(nu, 0.0), nu, np.nextafter(nu, 99.0))]


def test_matern_table_matches_direct_kv_build():
    # the two-level build (a coarse kv fit, then the fine pieces) against
    # fitting every piece to kv directly, at each piece's Chebyshev nodes
    nus = [float(v) for v in np.geomspace(*NU_BOUNDS, 20)] + _edge_nus()
    worst = 0.0
    for nu in nus:
        direct = matern_table_direct_reference(nu)
        table = _matern_table(nu)
        assert table.shape == direct.shape
        z = matern_piece_nodes_reference(table.shape[1]).ravel()
        got, want = np.empty(z.size), np.empty(z.size)
        _matern_interpolated(z, table, nu, got)
        _matern_interpolated(z, direct, nu, want)
        worst = max(worst, np.max(np.abs(got - want)))
    assert worst <= 1e-13


def test_matern_coarse_table_covers_every_fine_node(monkeypatch):
    # every fine node is read from a piece inside the coarse table. A
    # coarse table one piece short of the band top would extrapolate its
    # last piece there, where the kernel is below 1e-19: no absolute
    # error bound can see that, so the piece indices are checked
    horner, reads = covariance._horner, []

    def spy(z, table, bits, out):
        idx = horner(z, table, bits, out)
        if bits == _COARSE_BITS:
            reads.append((int(idx.min()), int(idx.max()), table.shape[1]))
        return idx

    monkeypatch.setattr(covariance, "_horner", spy)
    nus = [float(v) for v in np.geomspace(*NU_BOUNDS, 7)] + _edge_nus()
    for nu in nus:
        _matern_table.__wrapped__(nu)
    assert len(reads) == len(nus)
    for (lo, hi, pieces), nu in zip(reads, nus):
        assert 0 <= lo and hi < pieces, nu


# point-set sizes for the lag checks: the empty and smallest condensed
# vectors, an odd size, the event sizes the bench uses and a large one
LAG_SIZES = (1, 2, 3, 17, 170, 200, 1000)


def _lag_points(rng, n):
    """n rotated records with a duplicated record and signed zeros."""
    loc = rng.uniform(-6.0, 6.0, size=(n, 2))
    x = rng.uniform(16.0, 40.0, size=n)
    loc[n // 2], x[n // 2] = loc[0], x[0]
    loc[-1] = (-0.0, 0.0)
    loc[(n - 1) // 3] = (0.0, -0.0)
    return loc, x


def _same_bits(got, want):
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(got.view(np.uint64), want.view(np.uint64)))


def test_lags_match_scipy_bit_for_bit():
    # numpy lags against scipy.spatial's: pairs within a set in pdist's
    # condensed order, cross blocks as cdist's, matrices as squareform's,
    # at the closed-form, tabulated and kv kernels
    rng = np.random.default_rng(181)
    thetas = (THETA, dataclasses.replace(THETA, nu1=0.5, nu2=2.5),
              dataclasses.replace(THETA, nu1=1.5, nu2=40.0))
    for n in LAG_SIZES:
        loc, x = _lag_points(rng, n)
        loc_b, x_b = _lag_points(rng, 160)
        for v in (loc[:, 0], loc[:, 1], x):
            assert _same_bits(pair_lags(v), pdist(v[:, None], "cityblock"))
        for theta in thetas:
            want = smooth_correlation_scipy_reference(theta, loc, x)
            assert _same_bits(smooth_correlation(theta, loc, x), want), n
            full = squareform(want)
            np.fill_diagonal(full, 1.0 + theta.lambda2)
            assert _same_bits(correlation_matrix_arrays(theta, loc, x), full)
            upper = _correlation_upper(theta, loc, x)
            iu = np.triu_indices(n)
            assert _same_bits(upper[iu], full[iu])
            assert _same_bits(
                correlation_block(theta, loc, x, loc_b, x_b),
                smooth_correlation_scipy_reference(theta, loc, x, loc_b, x_b))
            assert _same_bits(
                smooth_correlation(theta, loc_b, x_b, loc, x),
                smooth_correlation_scipy_reference(theta, loc_b, x_b, loc, x))


def test_intensity_factor_values():
    th5 = dataclasses.replace(THETA, phiX=5.0)
    th10 = dataclasses.replace(THETA, phiX=10.0)
    assert intensity_only(th5, 23.0, 23.0) == 1.0
    assert intensity_only(th5, 10.0, 15.0) == pytest.approx(math.exp(-1.0),
                                                           rel=1e-14)
    assert intensity_only(th10, 20.0, 25.0) == pytest.approx(
        math.exp(-0.25), rel=1e-14)
    assert intensity_only(th10, 20.0, 25.0) == intensity_only(
        th10, 25.0, 20.0)


def test_composite_coincident_distinct_records():
    # same place, different simulated intensity: smooth correlation, no nugget
    want = math.exp(-((25.0 - 30.0) / THETA.phiX) ** 2)
    got = intensity_only(THETA, 25.0, 30.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert got < 1.0
    m = correlation_matrix_arrays(THETA, [[1.0, 2.0], [1.0, 2.0]],
                                  [25.0, 30.0])
    assert m[0, 1] == m[1, 0] == got
    np.testing.assert_array_equal(np.diag(m), 1.0 + THETA.lambda2)


def test_composite_single_record_gets_nugget():
    other = Hyperparameters(omega=-0.9, lambda2=0.36, phi1=9.0, phi2=0.1,
                            nu1=3.0, nu2=0.05, phiX=2.0)
    for th in (THETA, other):
        m = correlation_matrix_arrays(th, [[1.0, 2.0]], [25.0])
        assert m[0, 0] == 1.0 + THETA.lambda2


def test_composite_factorizes():
    rng = np.random.default_rng(17)
    for _ in range(40):
        th = random_theta(rng)
        p1, p2 = rng.normal(scale=4.0, size=(2, 2))
        x1, x2 = rng.uniform(16.0, 45.0, size=2)
        want = product_kernel(th, p1, float(x1), p2, float(x2))
        got = correlation_block(th, [p1], [x1], [p2], [x2])[0, 0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert correlation_block(th, [p2], [x2], [p1], [x1])[0, 0] == got


def test_correlation_matrix_single_point():
    m = correlation_matrix_arrays(THETA, [[0.0, 0.0]], [20.0])
    assert m.shape == (1, 1)
    np.testing.assert_allclose(m, [[1.0 + THETA.lambda2]])


def test_correlation_matrix_coincident_pair():
    # identical records in one matrix stay distinct rows: off-diagonal is
    # the smooth value 1, nugget only on the diagonal
    m = correlation_matrix_arrays(THETA, [[1.0, 1.0], [1.0, 1.0]],
                                  [22.0, 22.0])
    want = np.array([[1.36, 1.0], [1.0, 1.36]])
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_correlation_matrix_matches_scalar_kernel():
    rng = np.random.default_rng(29)
    for _ in range(10):
        th = random_theta(rng)
        n = int(rng.integers(2, 7))
        loc = rng.normal(scale=5.0, size=(n, 2))
        x = rng.uniform(16, 40, size=n)
        m = correlation_matrix_arrays(th, loc, x)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert m[i, j] == pytest.approx(1.0 + th.lambda2,
                                                    rel=1e-14)
                else:
                    want = product_kernel(th, loc[i], float(x[i]), loc[j],
                                          float(x[j]))
                    assert m[i, j] == pytest.approx(want, rel=1e-12,
                                                    abs=1e-15)
        np.testing.assert_allclose(m, m.T, atol=0)


def test_correlation_matrix_nugget_only_on_diagonal():
    rng = np.random.default_rng(31)
    loc = rng.normal(scale=3.0, size=(6, 2))
    x = rng.uniform(16, 40, size=6)
    m = correlation_matrix_arrays(THETA, loc, x)
    np.testing.assert_allclose(squareform(m, checks=False),
                               smooth_correlation(THETA, loc, x), atol=0)
    np.testing.assert_allclose(np.diag(m) - 1.0, np.full(6, THETA.lambda2),
                               atol=1e-15)


def test_correlation_matrix_positive_definite():
    rng = np.random.default_rng(37)
    for n in (5, 40, 200):
        th = random_theta(rng)
        loc = rng.uniform(0, 30, size=(n, 2))
        x = rng.uniform(16, 45, size=n)
        m = correlation_matrix_arrays(th, loc, x)
        w = np.linalg.eigvalsh(m)
        # smooth part is PSD, so the nugget bounds the spectrum from below
        assert w.min() >= th.lambda2 - 1e-8 * n
        m0 = squareform(smooth_correlation(th, loc, x)) + np.eye(n)
        assert np.linalg.eigvalsh(m0).min() >= -1e-8 * n


def test_correlation_block_matches_scalar():
    rng = np.random.default_rng(41)
    th = random_theta(rng)
    la = rng.normal(size=(3, 2))
    lb = rng.normal(size=(4, 2))
    xa = rng.uniform(16, 40, size=3)
    xb = rng.uniform(16, 40, size=4)
    blk = correlation_block(th, la, xa, lb, xb)
    assert blk.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            want = product_kernel(th, la[i], float(xa[i]), lb[j], float(xb[j]))
            assert blk[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_correlation_block_coincident_is_one_not_nugget():
    blk = correlation_block(THETA, [[1.0, 2.0]], [25.0], [[1.0, 2.0]], [25.0])
    assert blk[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_cross_correlation_row():
    # one target against an event's records: the prediction weights
    loc = np.array([[0.0, 0.0], [1.0, 1.0]])
    x = np.array([20.0, 22.0])
    v = correlation_block(THETA, [[0.0, 0.0]], [20.0], loc, x)[0]
    assert v[0] == pytest.approx(1.0, rel=1e-14)  # coincident, no nugget
    want = product_kernel(THETA, (0.0, 0.0), 20.0, loc[1], 22.0)
    assert v[1] == pytest.approx(want, rel=1e-12)
    vfar = correlation_block(THETA, [[500.0, 500.0]], [20.0], loc, x)[0]
    assert abs(vfar[0]) < 1e-12 and abs(vfar[1]) < 1e-12
