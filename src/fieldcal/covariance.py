"""Coordinate rotation and the composite correlation model.

Correlation between two data records is zero across events. Within an
event it is the product of a per-axis Matern kernel in rotated
coordinates and a Gaussian kernel in simulated intensity, plus a nugget
that attaches only to a record's correlation with itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.special import kv

# Two locations closer than this (per coordinate) count as coincident for
# the nugget branch.
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class Hyperparameters:
    """Correlation hyperparameters shared by all events.

    Parameters
    ----------
    omega : float
        Rotation angle in radians, in (-pi/2, pi/2].
    lambda2 : float
        Nugget variance ratio, >= 0 (dimensionless).
    phi1, phi2 : float
        Spatial ranges along the rotated axes, > 0.
    nu1, nu2 : float
        Matern smoothness along the rotated axes, > 0.
    phiX : float
        Intensity range in m/s, > 0.
    """

    omega: float
    lambda2: float
    phi1: float
    phi2: float
    nu1: float
    nu2: float
    phiX: float

    def __post_init__(self):
        if not -math.pi / 2 < self.omega <= math.pi / 2:
            raise ValueError("omega must lie in (-pi/2, pi/2]")
        if self.lambda2 < 0.0:
            raise ValueError("lambda2 must be >= 0")
        for name in ("phi1", "phi2", "nu1", "nu2", "phiX"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be > 0")

    def as_dict(self):
        return {
            "omega": self.omega, "lambda2": self.lambda2,
            "phi1": self.phi1, "phi2": self.phi2,
            "nu1": self.nu1, "nu2": self.nu2, "phiX": self.phiX,
        }


@dataclass(frozen=True)
class SpacePoint:
    """A location in transformed (rotated) coordinates."""

    s1: float
    s2: float

    def __post_init__(self):
        if not (math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise ValueError("coordinates must be finite")


@dataclass(frozen=True)
class KernelPoint:
    """One data record as seen by the correlation function."""

    event: str
    location: SpacePoint
    intensity: float

    def __post_init__(self):
        if not math.isfinite(self.intensity):
            raise ValueError("intensity must be finite")


def rotate_coords(s_star, omega: float) -> SpacePoint:
    """Rotate a raw grid coordinate pair by ``omega``: s = T s*."""
    c, s = math.cos(omega), math.sin(omega)
    a, b = float(s_star[0]), float(s_star[1])
    return SpacePoint(s1=c * a - s * b, s2=s * a + c * b)


def rotate_array(loc, omega: float) -> np.ndarray:
    """Rotate an (n, 2) coordinate array by ``omega``."""
    loc = np.asarray(loc, dtype=float)
    c, s = math.cos(omega), math.sin(omega)
    t = np.array([[c, -s], [s, c]])
    return loc @ t.T


def _matern_kv(z, nu: float) -> np.ndarray:
    """Matern correlation at scaled lags ``z`` straight from scipy's ``kv``."""
    coef = 2.0 ** (1.0 - nu) / math.gamma(nu)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        out = coef * z ** nu * kv(nu, z)
    out = np.asarray(out, dtype=float)
    # kv overflows for tiny z at large nu (true value ~1) and the product
    # degenerates to 0*inf far in the tail (true value ~0); z = 0 lands in
    # the first case
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad & (z < 1.0)] = 1.0
        out[bad & (z >= 1.0)] = 0.0
    return out


# Smoothness range the fitted model may take (the fit's search bounds),
# and so the range over which the tabulated Matern kernel is gated.
NU_BOUNDS = (0.05, 30.0)

# General-nu Matern kernel: f(z) = 2^(1-nu)/Gamma(nu) z^nu K_nu(z) is
# analytic in u = ln z although not smooth in z at 0, so it is tabulated
# per nu as polynomials of degree _DEGREE on pieces of width _PIECE in u,
# interpolating kv at Chebyshev nodes. Measured max abs error against kv
# is below 1e-13 over NU_BOUNDS; lags outside the band of pieces go to kv.
_U_LOW = -12.0
_PIECE = 0.5
_DEGREE = 14
# lags per evaluation block, so temporaries do not grow with the input
_CHUNK = 32768


def _chebyshev_interpolation():
    """Chebyshev nodes on [-1, 1], the matrix taking function values there
    to Chebyshev coefficients, and the one taking those to power-basis
    coefficients. Applied in that order: their product would cancel
    badly against the near-constant values of the kernel."""
    angles = np.pi * (np.arange(_DEGREE + 1) + 0.5) / (_DEGREE + 1)
    # discrete orthogonality of the T_k at the nodes
    to_cheb = np.cos(np.outer(np.arange(_DEGREE + 1), angles)) * (
        2.0 / (_DEGREE + 1))
    to_cheb[0] *= 0.5
    # column k holds the (integer) power coefficients of T_k
    to_power = np.zeros((_DEGREE + 1, _DEGREE + 1))
    to_power[0, 0] = to_power[1, 1] = 1.0
    for k in range(2, _DEGREE + 1):
        to_power[1:, k] = 2.0 * to_power[:-1, k - 1]
        to_power[:, k] -= to_power[:, k - 2]
    return np.cos(angles), to_cheb, to_power


@functools.lru_cache(maxsize=8)
def _matern_table(nu: float) -> np.ndarray:
    """Per-piece power-basis coefficients of the Matern kernel at ``nu``.

    Row k holds the t^k coefficient of every piece, with t in [-1, 1]
    spanning the piece, so evaluation gathers one row per degree. phi
    only rescales z, so the table depends on nu alone.
    """
    u_high = math.log(max(45.0, 2.0 * nu + 45.0))
    pieces = math.ceil((u_high - _U_LOW) / _PIECE)
    nodes, to_cheb, to_power = _chebyshev_interpolation()
    u = _U_LOW + _PIECE * (np.arange(pieces)[:, None] + 0.5 * (nodes + 1.0))
    table = to_power @ (to_cheb @ _matern_kv(np.exp(u), nu).T)
    table.flags.writeable = False
    return table


def _matern_interpolated(z, table: np.ndarray, nu: float, out: np.ndarray):
    """Evaluate a Matern table at the lags ``z`` (one block) into ``out``."""
    pieces = table.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.log(z)           # z = 0 gives -inf, sent to kv below
        s -= _U_LOW
        s *= 1.0 / _PIECE
        j = np.floor(s)
        outside = np.flatnonzero((j < 0.0) | (j >= pieces))
        np.clip(j, 0.0, pieces - 1.0, out=j)
        s -= j
        s *= 2.0
        s -= 1.0                # local coordinate t in [-1, 1]
        idx = j.astype(np.intp)
        np.take(table[_DEGREE], idx, out=out)
        term = np.empty_like(out)
        for k in range(_DEGREE - 1, -1, -1):
            out *= s
            out += np.take(table[k], idx, out=term)
    if outside.size:
        out[outside] = _matern_kv(z[outside], nu)


def _matern_values(h, phi: float, nu: float):
    """Matern correlation on an array of nonnegative lags.

    nu = 1/2, 3/2 and 5/2 use the exact closed forms (Abramowitz & Stegun
    10.2); other nu in NU_BOUNDS use the cached table; anything else uses
    kv. Zero lags give exactly 1 and results are clipped to [0, 1].
    """
    h = np.asarray(h, dtype=float)
    scale = math.sqrt(2.0 * nu) / phi
    out = np.empty(h.shape)
    flat_h, flat_out = h.reshape(-1), out.reshape(-1)
    closed = nu in (0.5, 1.5, 2.5)
    tabulated = not closed and NU_BOUNDS[0] <= nu <= NU_BOUNDS[1]
    table = _matern_table(nu) if tabulated else None
    for start in range(0, flat_h.size, _CHUNK):
        z = scale * flat_h[start:start + _CHUNK]
        block = flat_out[start:start + _CHUNK]
        if closed:
            np.exp(-z, out=block)
            if nu == 1.5:
                block *= 1.0 + z
            elif nu == 2.5:
                block *= 1.0 + z * (1.0 + z / 3.0)
        elif tabulated:
            _matern_interpolated(z, table, nu, block)
        else:
            block[:] = _matern_kv(z, nu)
    return np.clip(out, 0.0, 1.0, out=out)


def matern_1d(h, phi: float, nu: float):
    """Matern correlation at lag ``h`` with range ``phi``, smoothness ``nu``.

    Uses the sqrt(2 nu) h / phi argument convention, so nu = 0.5 gives
    exp(-h/phi). The zero-lag value is exactly 1.
    """
    if not phi > 0.0:
        raise ValueError("matern_1d: phi must be > 0")
    if not nu > 0.0:
        raise ValueError("matern_1d: nu must be > 0")
    if np.isscalar(h):
        if h < 0.0:
            raise ValueError("matern_1d: h must be >= 0")
        return float(_matern_values(np.array([h]), phi, nu)[0])
    return _matern_values(h, phi, nu)


def intensity_kernel(x, x_prime, phiX: float):
    """Gaussian correlation in simulated intensity: exp{-((x-x')/phiX)^2}."""
    if not phiX > 0.0:
        raise ValueError("intensity_kernel: phiX must be > 0")
    d = (np.asarray(x, dtype=float) - np.asarray(x_prime, dtype=float)) / phiX
    out = np.exp(-d * d)
    if np.isscalar(x) and np.isscalar(x_prime):
        return float(out)
    return out


def same_record(p: KernelPoint, q: KernelPoint) -> bool:
    """Whether two kernel points describe the same data record.

    Coincident means same event, locations within 1e-9 per coordinate,
    and identical intensity. Distinct stations that merely share
    coordinates are not the same record and get smooth correlation 1
    without the nugget.
    """
    return (p.event == q.event
            and abs(p.location.s1 - q.location.s1) <= COINCIDENCE_TOL
            and abs(p.location.s2 - q.location.s2) <= COINCIDENCE_TOL
            and p.intensity == q.intensity)


def composite_correlation(p: KernelPoint, q: KernelPoint,
                          theta: Hyperparameters) -> float:
    """Composite correlation between two records (locations pre-rotated)."""
    if p.event != q.event:
        return 0.0
    if same_record(p, q):
        return 1.0 + theta.lambda2
    h1 = abs(p.location.s1 - q.location.s1)
    h2 = abs(p.location.s2 - q.location.s2)
    return (matern_1d(h1, theta.phi1, theta.nu1)
            * matern_1d(h2, theta.phi2, theta.nu2)
            * intensity_kernel(p.intensity, q.intensity, theta.phiX))


def smooth_correlation(theta: Hyperparameters, loc_a, x_a, loc_b=None,
                       x_b=None) -> np.ndarray:
    """Nugget-free Matern x Matern x Gaussian correlation of one event's records.

    Coordinates must already be rotated. Without ``loc_b``/``x_b`` the
    result holds every pair within ``a`` in scipy's condensed (pdist)
    order; with them it is the (len(a), len(b)) cross block.
    """
    a = np.column_stack([np.atleast_2d(np.asarray(loc_a, dtype=float)),
                         np.atleast_1d(np.asarray(x_a, dtype=float))])
    if loc_b is None:
        def lags(k):
            return pdist(a[:, k:k + 1], "cityblock")
    else:
        b = np.column_stack([np.atleast_2d(np.asarray(loc_b, dtype=float)),
                             np.atleast_1d(np.asarray(x_b, dtype=float))])

        def lags(k):
            return cdist(a[:, k:k + 1], b[:, k:k + 1], "cityblock")
    c = _matern_values(lags(0), theta.phi1, theta.nu1)
    c *= _matern_values(lags(1), theta.phi2, theta.nu2)
    c *= np.exp(-(lags(2) / theta.phiX) ** 2)
    return c


def correlation_matrix_arrays(theta: Hyperparameters, loc, x,
                              include_nugget: bool) -> np.ndarray:
    """Within-event correlation matrix from coordinate and intensity arrays.

    ``loc`` is (n, 2) in rotated coordinates, ``x`` the simulated
    intensities. Rows are distinct records: the nugget goes on the
    diagonal only.
    """
    n = np.asarray(loc).shape[0]
    diag = 1.0 + theta.lambda2 if include_nugget else 1.0
    if n == 1:
        return np.array([[diag]])
    m = squareform(smooth_correlation(theta, loc, x))
    np.fill_diagonal(m, diag)
    return m


def correlation_block(theta: Hyperparameters, loc_a, x_a, loc_b, x_b) -> np.ndarray:
    """Smooth (nugget-free) cross-correlation matrix between two point sets.

    Both coordinate sets must already be rotated and belong to the same
    event; shape (len(a), len(b)).
    """
    return smooth_correlation(theta, loc_a, x_a, loc_b, x_b)


def _split_points(points: Sequence[KernelPoint]):
    events = [p.event for p in points]
    loc = np.array([[p.location.s1, p.location.s2] for p in points])
    x = np.array([p.intensity for p in points])
    return events, loc, x


def correlation_matrix(points: Sequence[KernelPoint], theta: Hyperparameters,
                       include_nugget: bool) -> np.ndarray:
    """Correlation matrix over a sequence of records.

    With the nugget the diagonal is 1 + lambda2, without it 1;
    off-diagonal entries are the smooth composite correlation either way.
    Entries between records of different events are exactly zero.
    """
    events, loc, x = _split_points(points)
    n = len(points)
    m = np.zeros((n, n))
    idx = np.arange(n)
    for ev in dict.fromkeys(events):
        sel = idx[np.array([e == ev for e in events])]
        m[np.ix_(sel, sel)] = correlation_matrix_arrays(
            theta, loc[sel], x[sel], include_nugget)
    return m


def cross_correlation_vector(target: KernelPoint,
                             points: Sequence[KernelPoint],
                             theta: Hyperparameters) -> np.ndarray:
    """Smooth correlations between a target record and a sequence of records.

    Never includes the nugget, even where the target coincides with a
    data record; this is the prediction weight vector.
    """
    events, loc, x = _split_points(points)
    tloc = np.array([[target.location.s1, target.location.s2]])
    tx = np.array([target.intensity])
    v = correlation_block(theta, tloc, tx, loc, x)[0]
    mask = np.array([e == target.event for e in events], dtype=float)
    return v * mask
