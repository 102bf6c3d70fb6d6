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
        Matern smoothness along the rotated axes, in (0, 100].
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
        # kv is trusted to 1e-12 up to nu = 100; Gamma(172) overflows
        for name in ("nu1", "nu2"):
            if getattr(self, name) > 100.0:
                raise ValueError(f"{name} must be <= 100")

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
    # kv overflows at tiny z (z = 0 included), where f is 1 - q/(nu-1) +
    # q^2/(2(nu-1)(nu-2)), q = z^2/4, to double precision (and 1 below
    # nu = 2); far in the tail the product is 0*inf (true value ~0)
    bad = ~np.isfinite(out)
    if np.any(bad):
        low = bad & (z < 1.0)
        out[low] = 1.0
        if nu > 2.0:
            q = 0.25 * z[low] ** 2
            out[low] -= q / (nu - 1.0) * (1.0 - q / (2.0 * (nu - 2.0)))
        out[bad & (z >= 1.0)] = 0.0
    return out


# Smoothness range the fitted model may take (the fit's search bounds),
# and so the range over which the tabulated Matern kernel is gated.
NU_BOUNDS = (0.05, 30.0)

# General-nu Matern kernel: f(z) = 2^(1-nu)/Gamma(nu) z^nu K_nu(z) is
# tabulated per nu as polynomials in z on pieces that a lag's IEEE-754
# bits index, with no log, floor or float-to-int cast. In the layout of
# b bits, bits >> b (the exponent e and the top 52 - b mantissa bits)
# numbers the pieces, 2^(52-b) per octave; the low b bits set under the
# exponent of 1.0, less 1 + 2^(b-53), are s = (z - centre) / 2^e in
# [-2^(b-53), 2^(b-53)). Row k of a table holds each piece's t^k
# coefficient of the Chebyshev interpolant in t = s / 2^(b-53), times
# 2^((53-b) k) (exact), so evaluation is Horner in s. The pieces run
# from the one holding e^_U_LOW to the one holding max(45, 2 nu + 45).
# A table is two levels of that layout: degree-8 fits to kv at 49 bits
# (about 200 pieces, 1700 kv calls) give f at the nodes of the degree-4
# pieces at 45 bits (about 2930, each at most 1/128 wide in ln z; 117
# KB), and fine piece j lies inside coarse piece j >> 4. Zero, +inf,
# NaN and lags outside the band index outside the table and go to kv.
# Measured: max abs error 1.1e-13 against kv over NU_BOUNDS, 7.2e-14
# against fitting every fine piece to kv at its nodes; a build takes
# about 1.2 ms on a 2-CPU x86 VM (the direct fit, about 5 ms).
_U_LOW = -12.0
_DEGREE = 4
_PIECE_BITS = 45
_COARSE_DEGREE = 8
_COARSE_BITS = 49
_LOW_BITS = int(np.float64(math.exp(_U_LOW)).view(np.int64))
_P0 = _LOW_BITS >> _PIECE_BITS
_ONE_BITS = int(np.float64(1.0).view(np.int64))
# half a piece in units of the octave's lower end
_HALF = 2.0 ** (_PIECE_BITS - 53)
# lags per evaluation block, so temporaries do not grow with the input
_CHUNK = 32768


@functools.lru_cache(maxsize=2)
def _chebyshev_interpolation(degree: int):
    """Chebyshev nodes on [-1, 1], the matrix taking function values there
    to Chebyshev coefficients, and the one taking those to power-basis
    coefficients, all read-only. Applied in that order: their product
    would cancel badly against the near-constant values of the kernel."""
    angles = np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1)
    # discrete orthogonality of the T_k at the nodes
    to_cheb = np.cos(np.outer(np.arange(degree + 1), angles)) * (
        2.0 / (degree + 1))
    to_cheb[0] *= 0.5
    # column k holds the (integer) power coefficients of T_k
    to_power = np.zeros((degree + 1, degree + 1))
    to_power[0, 0] = to_power[1, 1] = 1.0
    for k in range(2, degree + 1):
        to_power[1:, k] = 2.0 * to_power[:-1, k - 1]
        to_power[:, k] -= to_power[:, k - 2]
    out = np.cos(angles), to_cheb, to_power
    for a in out:
        a.flags.writeable = False
    return out


def _fit_table(f, top, bits: int, degree: int) -> np.ndarray:
    """Degree-``degree`` Chebyshev fits to ``f`` on the pieces of the
    ``bits`` layout, from the one holding e^_U_LOW to the one holding
    ``top``, as a (degree + 1, pieces) table in the power basis of s."""
    first = _LOW_BITS >> bits
    last = int(np.float64(top).view(np.int64)) >> bits
    edges = (np.arange(first, last + 2, dtype=np.int64) << bits).view(np.float64)
    nodes, to_cheb, to_power = _chebyshev_interpolation(degree)
    z = edges[:-1, None] + 0.5 * np.diff(edges)[:, None] * (1.0 + nodes)
    table = to_power @ (to_cheb @ f(z).T)
    table *= 2.0 ** ((53 - bits) * np.arange(degree + 1.0))[:, None]
    return table


def _horner(z, table: np.ndarray, bits: int, out: np.ndarray) -> np.ndarray:
    """Evaluate a table of the ``bits`` layout at the lags ``z`` (one
    block) into ``out``; returns each lag's piece index, outside the
    table's columns for a lag outside its band."""
    raw = z.view(np.int64)
    idx = raw >> bits
    idx -= _LOW_BITS >> bits
    s = raw & ((1 << bits) - 1)
    s |= _ONE_BITS
    s = s.view(np.float64)
    s -= 1.0 + 2.0 ** (bits - 53)    # local variable in [-2^(b-53), 2^(b-53))
    # a lag outside the band has an index outside the table, which
    # "clip" maps to an edge piece; "clip" also skips the buffered
    # output copy "raise" makes
    degree = table.shape[0] - 1
    np.take(table[degree], idx, out=out, mode="clip")
    term = np.empty_like(out)
    for k in range(degree - 1, -1, -1):
        out *= s
        out += np.take(table[k], idx, out=term, mode="clip")
    return idx


@functools.lru_cache(maxsize=8)
def _matern_table(nu: float) -> np.ndarray:
    """Per-piece power-basis coefficients of the Matern kernel at ``nu``.

    Row k holds the s^k coefficient of every piece, so evaluation gathers
    one row per degree. phi only rescales z, so the table depends on nu
    alone.
    """
    top = max(45.0, 2.0 * nu + 45.0)
    coarse = _fit_table(lambda z: _matern_kv(z, nu), top, _COARSE_BITS,
                        _COARSE_DEGREE)

    def coarse_values(z):
        out = np.empty(z.shape)
        _horner(z, coarse, _COARSE_BITS, out)
        return out

    table = _fit_table(coarse_values, top, _PIECE_BITS, _DEGREE)
    table.flags.writeable = False
    return table


def _matern_interpolated(z, table: np.ndarray, nu: float, out: np.ndarray):
    """Evaluate a Matern table at the lags ``z`` (one block) into ``out``;
    lags outside its band go to kv."""
    idx = _horner(z, table, _PIECE_BITS, out)
    if idx.min() < 0 or idx.max() >= table.shape[1]:
        outside = np.flatnonzero((idx < 0) | (idx >= table.shape[1]))
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


@functools.lru_cache(maxsize=2)
def _pair_index(n: int):
    """The pairs i < j of n points in condensed order (row by row, as
    scipy's ``pdist``): the n - 1 - i pairs of each row i, each pair's j
    and its flat C-order position i n + j, read-only; 16 bytes a pair
    (318 KB at n = 200)."""
    i, j = np.triu_indices(n, 1)
    out = np.arange(n - 1, -1, -1), j, i * n + j
    for a in out:
        a.flags.writeable = False
    return out


def pair_lags(v) -> np.ndarray:
    """|v_i - v_j| for every pair i < j of a 1-D array, in condensed order."""
    v = np.asarray(v, dtype=float)
    rows, j, _ = _pair_index(len(v))
    d = np.repeat(v, rows)
    d -= v.take(j)
    return np.abs(d, out=d)


def _columns(loc, x) -> np.ndarray:
    """(3, n) rows of rotated coordinates and intensities, each contiguous."""
    loc = np.atleast_2d(np.asarray(loc, dtype=float))
    return np.vstack([loc.T, np.atleast_1d(np.asarray(x, dtype=float))])


def smooth_correlation(theta: Hyperparameters, loc_a, x_a, loc_b=None,
                       x_b=None) -> np.ndarray:
    """Nugget-free Matern x Matern x Gaussian correlation of one event's records.

    Coordinates must already be rotated. Without ``loc_b``/``x_b`` the
    result holds every pair i < j within ``a`` in condensed order: row
    by row, (0, 1), (0, 2), ..., (1, 2), ..., as scipy's ``pdist``. With
    them it is the (len(a), len(b)) cross block. A lag is |a_k - b_k|
    along each axis k, so both forms agree bit for bit on a pair.
    """
    a = _columns(loc_a, x_a)
    if loc_b is None:
        def lags(k):
            return pair_lags(a[k])
    else:
        b = _columns(loc_b, x_b)

        def lags(k):
            return np.abs(a[k][:, None] - b[k])
    c = _matern_values(lags(0), theta.phi1, theta.nu1)
    c *= _matern_values(lags(1), theta.phi2, theta.nu2)
    c *= np.exp(-(lags(2) / theta.phiX) ** 2)
    return c


def _correlation_upper(theta: Hyperparameters, loc, x) -> np.ndarray:
    """Within-event correlation matrix on the diagonal and strict upper
    triangle of a fresh C-ordered n x n buffer; the strict lower
    triangle is unset. That upper triangle is the lower triangle of the
    buffer's (Fortran-ordered) transpose, which LAPACK factors in place.
    """
    c = smooth_correlation(theta, loc, x)
    n = len(np.atleast_1d(x))
    m = np.empty((n, n))
    m.reshape(-1)[_pair_index(n)[2]] = c
    np.fill_diagonal(m, 1.0 + theta.lambda2)
    return m


def correlation_matrix_arrays(theta: Hyperparameters, loc, x) -> np.ndarray:
    """Within-event correlation matrix from coordinate and intensity arrays.

    ``loc`` is (n, 2) in rotated coordinates, ``x`` the simulated
    intensities. Rows are distinct records, even where two coincide: the
    diagonal is 1 + lambda2 and every off-diagonal entry is the smooth
    correlation. The matrix is exactly symmetric.
    """
    m = _correlation_upper(theta, loc, x)
    lower = np.tril_indices(len(m), -1)
    m[lower] = m.T[lower]
    return m


def correlation_block(theta: Hyperparameters, loc_a, x_a, loc_b, x_b) -> np.ndarray:
    """Smooth (nugget-free) cross-correlation matrix between two point sets.

    Both coordinate sets must already be rotated and belong to the same
    event; shape (len(a), len(b)).
    """
    return smooth_correlation(theta, loc_a, x_a, loc_b, x_b)
