"""Coordinate rotation and the composite correlation model.

Each event is conditioned on its own records. Their correlation is the
product of a per-axis Matern kernel in rotated coordinates and a
Gaussian kernel in simulated intensity; the nugget lambda2 is added on
the diagonal of an event's correlation matrix, and never to the
cross-correlation between data records and prediction targets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform
from scipy.special import kv


@dataclass(frozen=True)
class Hyperparameters:
    """Correlation hyperparameters shared by all events; all finite.

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
        for name, value in self.as_dict().items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if not self.lambda2 >= 0.0:
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
# is 4.3e-14 over NU_BOUNDS; lags outside the band of pieces go to kv.
# Degree 4 on width 1/128 costs 4 multiply-adds per lag where degree 8 on
# width 1/8 cost 8, at the same accuracy; degree 3 on width 1/256 gives
# 1.2e-12. A table is 5 x about 2030 coefficients (81 KB).
_U_LOW = -12.0
_PIECE = 1.0 / 128.0
_DEGREE = 4
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
    """Evaluate a Matern table at the lags ``z`` (one block) into ``out``.
    A NaN lag lands in piece 0 with a NaN local coordinate, so its value
    stays NaN."""
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
        # idx is in range but for a NaN lag, so "clip" changes nothing
        # else; it skips the buffered output copy "raise" makes
        np.take(table[_DEGREE], idx, out=out, mode="clip")
        term = np.empty_like(out)
        for k in range(_DEGREE - 1, -1, -1):
            out *= s
            out += np.take(table[k], idx, out=term, mode="clip")
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
            # e^-z is already 0 at z = 746; the cap keeps a huge or
            # infinite lag from giving 0 * inf = NaN in the polynomial
            np.minimum(z, 1e3, out=z)
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


def correlation_matrix_arrays(theta: Hyperparameters, loc, x) -> np.ndarray:
    """Within-event correlation matrix from coordinate and intensity arrays.

    ``loc`` is (n, 2) in rotated coordinates, ``x`` the simulated
    intensities. Rows are distinct records, even where two coincide: the
    diagonal is 1 + lambda2 and every off-diagonal entry is the smooth
    correlation.
    """
    m = squareform(smooth_correlation(theta, loc, x))
    np.fill_diagonal(m, 1.0 + theta.lambda2)
    return m


def correlation_block(theta: Hyperparameters, loc_a, x_a, loc_b, x_b) -> np.ndarray:
    """Smooth (nugget-free) cross-correlation matrix between two point sets.

    Both coordinate sets must already be rotated and belong to the same
    event; shape (len(a), len(b)).
    """
    return smooth_correlation(theta, loc_a, x_a, loc_b, x_b)
