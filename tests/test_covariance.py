"""Rotation, Matern and intensity kernels, and the composite correlation
model with its nugget rules."""

import math

import numpy as np
import pytest
from scipy.special import kv

from fieldcal.covariance import (
    _PIECE,
    _U_LOW,
    _matern_values,
    COINCIDENCE_TOL,
    NU_BOUNDS,
    Hyperparameters,
    KernelPoint,
    SpacePoint,
    composite_correlation,
    correlation_block,
    correlation_matrix,
    correlation_matrix_arrays,
    cross_correlation_vector,
    intensity_kernel,
    matern_1d,
    rotate_array,
    rotate_coords,
    same_record,
)

THETA = Hyperparameters(omega=0.3, lambda2=0.36, phi1=2.0, phi2=1.5,
                        nu1=1.2, nu2=0.7, phiX=8.0)


def kp(event, s1, s2, x):
    return KernelPoint(event=event, location=SpacePoint(s1, s2), intensity=x)


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


def test_hyperparameters_validation():
    with pytest.raises(ValueError):
        Hyperparameters(omega=2.0, lambda2=0.1, phi1=1, phi2=1, nu1=1, nu2=1,
                        phiX=1)
    with pytest.raises(ValueError):
        Hyperparameters(omega=0.0, lambda2=-0.1, phi1=1, phi2=1, nu1=1, nu2=1,
                        phiX=1)
    with pytest.raises(ValueError):
        Hyperparameters(omega=0.0, lambda2=0.1, phi1=0.0, phi2=1, nu1=1,
                        nu2=1, phiX=1)
    # boundary: omega = pi/2 allowed, -pi/2 not
    Hyperparameters(omega=math.pi / 2, lambda2=0, phi1=1, phi2=1, nu1=1,
                    nu2=1, phiX=1)
    with pytest.raises(ValueError):
        Hyperparameters(omega=-math.pi / 2, lambda2=0, phi1=1, phi2=1, nu1=1,
                        nu2=1, phiX=1)


def test_rotation_identity_at_zero():
    p = rotate_coords((3.7, -1.2), 0.0)
    assert (p.s1, p.s2) == (3.7, -1.2)


def test_rotation_quarter_turn():
    p = rotate_coords((1.0, 0.0), math.pi / 2)
    assert p.s1 == pytest.approx(0.0, abs=1e-15)
    assert p.s2 == pytest.approx(1.0, rel=1e-15)


def test_rotation_direct_formula():
    w = 0.3
    p = rotate_coords((2.0, 5.0), w)
    assert p.s1 == pytest.approx(math.cos(w) * 2.0 - math.sin(w) * 5.0,
                                 rel=1e-14)
    assert p.s2 == pytest.approx(math.sin(w) * 2.0 + math.cos(w) * 5.0,
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
            p = rotate_coords(pts[i], w)
            assert p.s1 == pytest.approx(out[i, 0], abs=1e-12)
            assert p.s2 == pytest.approx(out[i, 1], abs=1e-12)


def test_matern_zero_lag_is_one():
    for nu in (0.05, 0.5, 1.5, 7.0, 30.0):
        assert matern_1d(0.0, 1.7, nu) == 1.0


def test_matern_exponential_special_case():
    # nu = 1/2 collapses to exp(-h/phi)
    for h in (0.1, 0.9, 3.4):
        for phi in (0.5, 2.0):
            assert matern_1d(h, phi, 0.5) == pytest.approx(
                math.exp(-h / phi), rel=1e-12)


def test_matern_closed_forms():
    # nu = 3/2: (1+z) e^{-z} with z = sqrt(3) h / phi
    z = math.sqrt(3.0)
    assert matern_1d(1.0, 1.0, 1.5) == pytest.approx((1 + z) * math.exp(-z),
                                                     rel=1e-12)
    assert matern_1d(1.0, 1.0, 1.5) == pytest.approx(0.4833577245965078,
                                                     rel=1e-12)
    # nu = 5/2: (1 + z + z^2/3) e^{-z} with z = sqrt(5) h / phi
    for h, phi in ((1.0, 1.0), (2.0, 1.5)):
        z = math.sqrt(5.0) * h / phi
        want = (1.0 + z + z * z / 3.0) * math.exp(-z)
        assert matern_1d(h, phi, 2.5) == pytest.approx(want, rel=1e-12)


def test_matern_strictly_decreasing():
    hs = np.linspace(0.0, 12.0, 120)
    for nu in (0.1, 0.5, 1.5, 6.0):
        vals = matern_1d(hs, 2.0, nu)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 0.0)
        assert np.all(vals <= 1.0)


def test_matern_gaussian_limit():
    # large nu tends to exp(-h^2 / (2 phi^2)); 2% at nu = 50
    for h in (0.3, 0.8, 1.5):
        lim = math.exp(-h * h / 2.0)
        assert matern_1d(h, 1.0, 50.0) == pytest.approx(lim, rel=0.02)


def test_matern_extreme_smoothness_stable():
    vals = matern_1d(np.linspace(0, 5, 50), 1.0, 30.0)
    assert np.all(np.isfinite(vals))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_matern_domain_errors():
    with pytest.raises(ValueError):
        matern_1d(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        matern_1d(1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        matern_1d(-0.5, 1.0, 1.0)


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
    # lags as multiples of z: zero, below 1e-6, both sides of every piece
    # edge of the table band, and on past where kv underflows
    edges = np.exp(np.arange(_U_LOW - 1.0, 5.0, _PIECE))
    base_z = np.concatenate([
        [0.0, 1e-300, 1e-12, 1e-8, 9e-7], edges * (1 - 1e-12),
        edges * (1 + 1e-12), np.geomspace(1e-7, 800.0, 4000)])
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
    assert worst <= 1e-12


def test_intensity_kernel_values():
    assert intensity_kernel(23.0, 23.0, 5.0) == 1.0
    assert intensity_kernel(10.0, 15.0, 5.0) == pytest.approx(math.exp(-1.0),
                                                              rel=1e-14)
    assert intensity_kernel(20.0, 25.0, 10.0) == pytest.approx(
        math.exp(-0.25), rel=1e-14)
    assert intensity_kernel(20.0, 25.0, 10.0) == intensity_kernel(
        25.0, 20.0, 10.0)
    with pytest.raises(ValueError):
        intensity_kernel(1.0, 2.0, 0.0)


def test_same_record_rules():
    a = kp("ev1", 1.0, 2.0, 25.0)
    assert same_record(a, kp("ev1", 1.0, 2.0, 25.0))
    assert same_record(a, kp("ev1", 1.0 + 0.5 * COINCIDENCE_TOL, 2.0, 25.0))
    assert not same_record(a, kp("ev2", 1.0, 2.0, 25.0))
    assert not same_record(a, kp("ev1", 1.0, 2.0, 25.0001))
    assert not same_record(a, kp("ev1", 1.0 + 1e-6, 2.0, 25.0))


def test_composite_cross_event_is_zero():
    a = kp("ev1", 1.0, 2.0, 25.0)
    b = kp("ev2", 1.0, 2.0, 25.0)
    assert composite_correlation(a, b, THETA) == 0.0


def test_composite_same_record_gets_nugget():
    a = kp("ev1", 1.0, 2.0, 25.0)
    assert composite_correlation(a, a, THETA) == 1.0 + THETA.lambda2
    # the nugget branch ignores every other hyperparameter
    other = Hyperparameters(omega=-0.9, lambda2=0.36, phi1=9.0, phi2=0.1,
                            nu1=3.0, nu2=0.05, phiX=2.0)
    assert composite_correlation(a, a, other) == 1.0 + THETA.lambda2


def test_composite_coincident_distinct_records():
    # same place, different simulated intensity: smooth correlation, no nugget
    a = kp("ev1", 1.0, 2.0, 25.0)
    b = kp("ev1", 1.0, 2.0, 30.0)
    want = intensity_kernel(25.0, 30.0, THETA.phiX)
    assert composite_correlation(a, b, THETA) == pytest.approx(want,
                                                               rel=1e-14)
    assert composite_correlation(a, b, THETA) < 1.0


def test_composite_factorizes():
    rng = np.random.default_rng(17)
    for _ in range(40):
        th = random_theta(rng)
        p1, p2 = rng.normal(scale=4.0, size=(2, 2))
        x1, x2 = rng.uniform(16.0, 45.0, size=2)
        a = kp("ev", p1[0], p1[1], float(x1))
        b = kp("ev", p2[0], p2[1], float(x2))
        want = (matern_1d(abs(p1[0] - p2[0]), th.phi1, th.nu1)
                * matern_1d(abs(p1[1] - p2[1]), th.phi2, th.nu2)
                * intensity_kernel(float(x1), float(x2), th.phiX))
        got = composite_correlation(a, b, th)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        assert composite_correlation(b, a, th) == got


def test_correlation_matrix_single_point():
    pts = [kp("ev", 0.0, 0.0, 20.0)]
    np.testing.assert_allclose(correlation_matrix(pts, THETA, True),
                               [[1.0 + THETA.lambda2]])
    np.testing.assert_allclose(correlation_matrix(pts, THETA, False), [[1.0]])


def test_correlation_matrix_coincident_pair():
    # identical records in one matrix stay distinct rows: off-diagonal is
    # the smooth value 1, nugget only on the diagonal
    pts = [kp("ev", 1.0, 1.0, 22.0), kp("ev", 1.0, 1.0, 22.0)]
    m = correlation_matrix(pts, THETA, include_nugget=False)
    np.testing.assert_allclose(m, np.ones((2, 2)), atol=1e-15)
    m = correlation_matrix(pts, THETA, include_nugget=True)
    want = np.array([[1.36, 1.0], [1.0, 1.36]])
    np.testing.assert_allclose(m, want, atol=1e-15)


def test_correlation_matrix_matches_scalar_kernel():
    rng = np.random.default_rng(29)
    for _ in range(10):
        th = random_theta(rng)
        n = int(rng.integers(2, 7))
        loc = rng.normal(scale=5.0, size=(n, 2))
        x = rng.uniform(16, 40, size=n)
        pts = [kp("ev", loc[i, 0], loc[i, 1], float(x[i])) for i in range(n)]
        m = correlation_matrix(pts, th, include_nugget=True)
        for i in range(n):
            for j in range(n):
                if i == j:
                    assert m[i, j] == pytest.approx(1.0 + th.lambda2,
                                                    rel=1e-14)
                else:
                    want = composite_correlation(pts[i], pts[j], th)
                    assert m[i, j] == pytest.approx(want, rel=1e-10,
                                                    abs=1e-15)
        np.testing.assert_allclose(m, m.T, atol=0)
        # array route agrees with the point route
        ma = correlation_matrix_arrays(th, loc, x, include_nugget=True)
        np.testing.assert_allclose(ma, m, rtol=1e-12, atol=1e-15)


def test_correlation_matrix_block_diagonal_across_events():
    pts = ([kp("a", float(i), 0.0, 20.0 + i) for i in range(3)]
           + [kp("b", float(i), 0.5, 21.0 + i) for i in range(2)])
    m = correlation_matrix(pts, THETA, include_nugget=True)
    assert np.all(m[:3, 3:] == 0.0)
    assert np.all(m[3:, :3] == 0.0)
    # each block equals the matrix built from that event alone
    np.testing.assert_allclose(m[:3, :3],
                               correlation_matrix(pts[:3], THETA, True))
    np.testing.assert_allclose(m[3:, 3:],
                               correlation_matrix(pts[3:], THETA, True))


def test_correlation_matrix_nugget_only_on_diagonal():
    rng = np.random.default_rng(31)
    loc = rng.normal(scale=3.0, size=(6, 2))
    x = rng.uniform(16, 40, size=6)
    pts = [kp("ev", loc[i, 0], loc[i, 1], float(x[i])) for i in range(6)]
    with_n = correlation_matrix(pts, THETA, include_nugget=True)
    without = correlation_matrix(pts, THETA, include_nugget=False)
    off = ~np.eye(6, dtype=bool)
    np.testing.assert_allclose(with_n[off], without[off], atol=0)
    np.testing.assert_allclose(np.diag(with_n) - np.diag(without),
                               np.full(6, THETA.lambda2), atol=1e-15)


def test_correlation_matrix_positive_definite():
    rng = np.random.default_rng(37)
    for n in (5, 40, 200):
        th = random_theta(rng)
        loc = rng.uniform(0, 30, size=(n, 2))
        x = rng.uniform(16, 45, size=n)
        m = correlation_matrix_arrays(th, loc, x, include_nugget=True)
        w = np.linalg.eigvalsh(m)
        # smooth part is PSD, so the nugget bounds the spectrum from below
        assert w.min() >= th.lambda2 - 1e-8 * n
        m0 = correlation_matrix_arrays(th, loc, x, include_nugget=False)
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
            pa = kp("ev", la[i, 0], la[i, 1], float(xa[i]))
            pb = kp("ev", lb[j, 0], lb[j, 1], float(xb[j]))
            # smooth kernel even where the points coincide
            want = (matern_1d(abs(la[i, 0] - lb[j, 0]), th.phi1, th.nu1)
                    * matern_1d(abs(la[i, 1] - lb[j, 1]), th.phi2, th.nu2)
                    * intensity_kernel(float(xa[i]), float(xb[j]), th.phiX))
            assert blk[i, j] == pytest.approx(want, rel=1e-12, abs=1e-15)
            assert want == pytest.approx(
                composite_correlation(pa, pb, th), rel=1e-12, abs=1e-15)


def test_correlation_block_coincident_is_one_not_nugget():
    blk = correlation_block(THETA, [[1.0, 2.0]], [25.0], [[1.0, 2.0]], [25.0])
    assert blk[0, 0] == pytest.approx(1.0, rel=1e-14)


def test_cross_correlation_vector():
    pts = [kp("a", 0.0, 0.0, 20.0), kp("a", 1.0, 1.0, 22.0),
           kp("b", 0.0, 0.0, 20.0)]
    target = kp("a", 0.0, 0.0, 20.0)
    v = cross_correlation_vector(target, pts, THETA)
    assert v[0] == pytest.approx(1.0, rel=1e-14)  # coincident, no nugget
    assert v[2] == 0.0  # other event masked
    want = composite_correlation(target, pts[1], THETA)
    assert v[1] == pytest.approx(want, rel=1e-12)
    far = kp("a", 500.0, 500.0, 20.0)
    vfar = cross_correlation_vector(far, pts, THETA)
    assert abs(vfar[0]) < 1e-12 and abs(vfar[1]) < 1e-12
