"""Posterior prediction of the actual field and conditional simulation.

Everything here conditions the marginal Gaussian model on one event's
training pairs. The coefficient uncertainty is kept (the prior scale B
is finite), so far from the data predictions revert to the regression
mean with an inflated basis-term variance instead of collapsing.
Diagonal-only posteriors run over the targets in blocks of one Matern
kernel chunk of lags, so their working set stays in cache at any size.
A full covariance is built and updated in one m x m buffer: the prior
correlation goes into its upper triangle, the conditioning terms are two
BLAS rank-k updates (``dsyrk``) of that triangle, and the triangle is
then mirrored, so the result is exactly symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special
from scipy.linalg import blas

from .covariance import (_CHUNK, correlation_block, rotate_array,
                         smooth_correlation)
from .dataio import GridField
from .inference import ModelFit, basis_matrix
from .numerics import pivoted_cholesky

# degrees of freedom above which Gaussian quantiles replace Student-t
GAUSSIAN_DF = 30
# most targets a full-covariance posterior may have: it builds one dense
# n x n matrix (190 MiB at the limit, where its peak is 1.05 of them)
FULL_COV_MAX_TARGETS = 5000


class CovarianceTooLarge(Exception):
    """A full-covariance posterior was asked for more targets than allowed."""


@dataclass(frozen=True)
class PosteriorField:
    """Joint posterior at a set of target records.

    ``space`` is "actual_field" for the latent field Z and "measurement"
    when the independent measurement-error variance is added back.
    ``covariance`` is None for diagonal-only predictions; ``variance``
    always holds the diagonal. ``df`` = K - q drives interval quantiles.
    """

    event: str
    locations: np.ndarray
    intensities: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    covariance: np.ndarray | None
    df: int
    space: str
    extrapolated: np.ndarray | None = None
    cell_index: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.mean)
        if not (len(self.locations) == len(self.intensities)
                == len(self.variance) == n):
            raise ValueError("posterior component lengths disagree")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("posterior mean must be finite")
        if self.covariance is not None and self.covariance.shape != (n, n):
            raise ValueError("covariance shape mismatch")
        if self.space not in ("actual_field", "measurement"):
            raise ValueError(f"unknown space {self.space!r}")

    @property
    def sd(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def interval(self, level: float = 0.95, law: str = "auto"):
        """Central interval bounds per target.

        ``law`` is "gauss", "t", or "auto" (t for df <= 30, else
        Gaussian).
        """
        if not 0.0 < level < 1.0:
            raise ValueError("level must lie in (0, 1)")
        if law == "auto":
            law = "t" if self.df <= GAUSSIAN_DF else "gauss"
        p = 0.5 * (1.0 + level)
        if law == "gauss":
            zq = special.ndtri(p)
        elif law == "t":
            zq = special.stdtrit(max(self.df, 1), p)
        else:
            raise ValueError(f"unknown interval law {law!r}")
        half = zq * self.sd
        return self.mean - half, self.mean + half


def _prior_upper(theta, loc_t, x) -> np.ndarray:
    """m x m buffer holding the targets' smooth correlation on its strict
    upper triangle and 1 on its diagonal; nothing below the diagonal is
    meant to be read. It is filled a block of rows at a time, each the
    cross block of those rows against themselves and every later target,
    so no temporary grows with m^2."""
    m = len(x)
    cov = np.empty((m, m))
    rows = max(_CHUNK // max(m, 1), 1)
    for lo in range(0, m, rows):
        hi = lo + rows
        cov[lo:hi, lo:] = smooth_correlation(theta, loc_t[lo:hi], x[lo:hi],
                                             loc_t[lo:], x[lo:])
    np.fill_diagonal(cov, 1.0)
    return cov


def _syrk_upper(cov, alpha, a_t):
    """cov += alpha a_t^T a_t on the upper triangle of the C-ordered cov,
    in place: BLAS ``dsyrk`` on cov^T, whose lower triangle that is."""
    if cov.size:
        blas.dsyrk(alpha, a_t, beta=1.0, c=cov.T, trans=1, lower=1,
                   overwrite_c=1)


def _mirror_upper(cov):
    """Copy the upper triangle of a square matrix onto its lower triangle,
    a band of 64 rows at a time, so it is exactly symmetric."""
    m, rows = len(cov), 64
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        diag = cov[lo:hi, lo:hi]
        iu = np.triu_indices(hi - lo, 1)
        diag.T[iu] = diag[iu]
        cov[hi:, lo:hi] = cov[lo:hi, hi:].T


def _whiten(ef, t_mat):
    """L^{-1} T^T for a cross-correlation block T, overwriting T: one
    triangular product (BLAS ``dtrmm``, half a GEMM's flops) on T^T,
    which is Fortran-ordered because T is C-ordered."""
    return blas.dtrmm(1.0, ef.Linv, t_mat.T, lower=1, overwrite_b=1)


def _conditional(fit: ModelFit, event: str, targets, full_cov: bool,
                 add_noise: bool) -> PosteriorField:
    ef = fit.event(event)
    theta, prior = fit.theta, fit.prior
    loc, x = targets
    loc = np.atleast_2d(np.asarray(loc, dtype=float))
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if loc.shape[0] != x.shape[0] or loc.shape[1] != 2:
        raise ValueError("targets must supply (n, 2) locations and n intensities")
    n = len(x)
    if full_cov and n > FULL_COV_MAX_TARGETS:
        raise CovarianceTooLarge(
            f"full covariance is limited to {FULL_COV_MAX_TARGETS} targets; "
            f"{n} targets ask for a {n} x {n} matrix "
            f"({n * n * 8 / 2 ** 20:.0f} MiB)")

    loc_t = rotate_array(loc, theta.omega)
    # the record-level nugget splits into measurement error (never part
    # of Z) and micro-scale field variance (diagonal of Z only)
    nugget_z = max(theta.lambda2 - prior.sigmaY ** 2 / ef.sigma_hat2, 0.0)
    noise = prior.sigmaY ** 2 if add_noise else 0.0

    def block(rows):
        """T, the posterior mean and H_t - T A^{-1} H for a slice of targets."""
        t_mat = correlation_block(theta, loc_t[rows], x[rows],
                                  ef.locations_rot, ef.x)
        h_t = basis_matrix(x[rows], prior.q)
        return (t_mat, h_t @ ef.beta_hat + t_mat @ ef.weights,
                h_t - t_mat @ ef.Ainv_H)

    if full_cov:
        t_mat, mean, r = block(slice(None))
        cov = _prior_upper(theta, loc_t, x)
        # C - T A^{-1} T^T + r B* r^T on the upper triangle, in place:
        # T A^{-1} T^T = w w^T with w^T = L^{-1} T^T, and r B* r^T = v v^T
        # with v^T = L_B^{-1} r^T, L_B the factor of (B*)^{-1}
        _syrk_upper(cov, -1.0, _whiten(ef, t_mat))
        _syrk_upper(cov, 1.0, ef.Bstar_inv_factor.solve_lower(r.T))
        _mirror_upper(cov)
        cov[np.diag_indices_from(cov)] += nugget_z
        cov *= ef.sigma_hat2
        cov[np.diag_indices_from(cov)] += noise
        var = np.diag(cov).copy()
    else:
        # targets do not couple in the diagonal, so each block of rows is
        # conditioned on its own; a block's lags are one kernel chunk, so
        # T and the kernel's temporaries stay in cache whatever K and n are.
        # Whole groups of 8 rows keep BLAS's matrix-vector kernel grouping
        # every row as in one call over all targets, so the mean does not
        # depend on the blocking, not even in its last bit
        cov = None
        mean = np.empty(n)
        var = np.empty(n)
        rows = max(_CHUNK // ef.K // 8, 1) * 8
        for lo in range(0, n, rows):
            blk = slice(lo, lo + rows)
            t_mat, mean[blk], r = block(blk)
            # t_i^T A^{-1} t_i = ||L^{-1} t_i||^2, and r_i B* r_i^T =
            # ||L_B^{-1} r_i^T||^2 as in the full path
            w = _whiten(ef, t_mat)
            v = ef.Bstar_inv_factor.solve_lower(r.T)
            var[blk] = (1.0 + nugget_z - np.einsum("ji,ji->i", w, w)
                        + np.einsum("ji,ji->i", v, v))
        var = ef.sigma_hat2 * np.clip(var, 0.0, None) + noise
    return PosteriorField(event=event, locations=loc, intensities=x,
                          mean=mean, variance=var, covariance=cov,
                          df=ef.K - prior.q,
                          space="measurement" if add_noise else "actual_field")


def posterior_field(fit: ModelFit, event: str, targets,
                    full_cov: bool = False) -> PosteriorField:
    """Posterior of the actual field Z at target (location, intensity) records.

    ``targets`` is a (locations (n, 2), intensities (n,)) pair. The mean
    is H_t beta_hat + T A^{-1} (y - H beta_hat); the covariance is
    sigma_hat2 times the conditioned correlation, including the
    coefficient-uncertainty term through B*.
    """
    return _conditional(fit, event, targets, full_cov, add_noise=False)


def predictive_measurements(fit: ModelFit, event: str, targets,
                            full_cov: bool = True) -> PosteriorField:
    """Predictive distribution of held-out measurements Y = Z + noise.

    Identical to :func:`posterior_field` except the measurement-error
    variance is added to the diagonal.
    """
    return _conditional(fit, event, targets, full_cov, add_noise=True)


def sample_field(posterior: PosteriorField, n: int, seed: int) -> np.ndarray:
    """Draw ``n`` joint realizations from a full-covariance posterior.

    Returns an (n, m) array whose row i is the i-th draw at the m
    targets. Uses the pivoted factor G with G G^T = covariance, so
    rank-deficient (even zero) covariances sample exactly. Deterministic
    in (posterior, n, seed).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if posterior.covariance is None:
        raise ValueError("sample_field requires a full-covariance posterior")
    factor = pivoted_cholesky(posterior.covariance)
    m = len(posterior.mean)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n, m))
    # G z with G = P U^T, without forming G: column perm[k] of the draws
    # is z @ U[:, k]
    draws = np.empty((n, m))
    draws[:, factor.permutation] = z @ factor.upper
    draws += posterior.mean
    return draws


def predict_grid(fit: ModelFit, event: str, grid: GridField,
                 full_cov: bool = False) -> PosteriorField:
    """Posterior of the actual field at every non-missing grid cell.

    Cells at or below the event's fitting threshold are still predicted
    but marked in ``extrapolated``; ``cell_index`` maps targets back to
    row-major grid positions.
    """
    ef = fit.event(event)
    centers = grid.cell_centers()
    vals = grid.values.ravel()
    valid = np.flatnonzero(np.isfinite(vals))
    if valid.size == 0:
        raise ValueError("grid has no non-missing cells")
    pf = _conditional(fit, event, (centers[valid], vals[valid]), full_cov,
                      add_noise=False)
    return replace(pf, extrapolated=pf.intensities <= ef.dataset.threshold,
                   cell_index=valid)


def _scatter(grid: GridField, pf: PosteriorField, values) -> GridField:
    flat = np.full(grid.n1 * grid.n2, np.nan)
    flat[pf.cell_index] = values
    return GridField(event=grid.event, n1=grid.n1, n2=grid.n2,
                     origin=grid.origin, spacing=grid.spacing,
                     values=flat.reshape(grid.n1, grid.n2))


def export_grids(pf: PosteriorField, grid: GridField):
    """Grid-shaped views of a grid prediction.

    Returns a dict of GridFields: posterior mean, posterior SD, mean
    minus simulated, mean over simulated (missing where the simulated
    value is 0 or so small that the quotient overflows), and the
    extrapolation mask (1 where the simulated value was at or below the
    fit threshold).
    """
    if pf.cell_index is None:
        raise ValueError("posterior was not produced by predict_grid")
    sim = grid.values.ravel()[pf.cell_index]
    # a zero simulated value is legal input; its ratio is undefined (NA),
    # as is one that overflows (a subnormal simulated value)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = pf.mean / sim
    ratio[~np.isfinite(ratio)] = np.nan
    out = {
        "mean": _scatter(grid, pf, pf.mean),
        "sd": _scatter(grid, pf, pf.sd),
        "diff": _scatter(grid, pf, pf.mean - sim),
        "ratio": _scatter(grid, pf, ratio),
        "extrapolated": _scatter(grid, pf, pf.extrapolated.astype(float)),
    }
    return out

